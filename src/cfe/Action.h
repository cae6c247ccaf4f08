//===- cfe/Action.h - Semantic action table ---------------------*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic actions are registered in an ActionTable and referenced by
/// dense ids from CFE nodes, grammar productions and compiled machines.
/// An action of arity k pops k values from the engine's value stack and
/// pushes exactly one result — the "net +1" discipline that lets actions
/// survive DGNF normalization as ε-marker symbols (see DESIGN.md §3).
///
/// Dispatch is *devirtualized*: an Action is a tagged record (ActionKind
/// + small immediates) executed by a switch in ValueStack::apply, not a
/// type-erased callable. The kinds cover the shapes the benchmark
/// grammars actually use — constants, argument selection, pair/list
/// construction, integer accumulation, token text — with Custom falling
/// back to a raw function pointer (optionally carrying a payload
/// pointer). Registration allocates nothing on the common path.
///
/// ValueStack::apply is the one implementation of every kind. The
/// engines reach it through the micro-op projection (applyMicroOp) or
/// the MSlow escape, and the Fig. 9 reference interpreter
/// (engine/FusedInterp.h) calls it directly with no pool, so the
/// differential suites compare pooled and heap values built by the same
/// code; tests/ActionDispatchTest.cpp pins each kind's result against a
/// literal expected value.
///
/// Actions may consult a per-parse ParseContext (input text and an opaque
/// user pointer), which is how grammars like ppm implement semantic
/// checks without building intermediate structures. Actions that never
/// read lexeme text declare ReadsInput = false, which lets the streaming
/// parser skip retain-watermark tracking for the whole grammar.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_CFE_ACTION_H
#define FLAP_CFE_ACTION_H

#include "cfe/Value.h"

#include <cassert>
#include <string>
#include <string_view>
#include <vector>

namespace flap {

/// Per-parse environment visible to actions.
///
/// In whole-buffer parses Input is the entire document and Base is 0. In
/// streaming parses (engine/Stream.h) Input is the currently addressable
/// window — the bounded carry buffer — and Base is the absolute stream
/// offset of Input[0]. Lexeme spans always carry *absolute* offsets, so
/// actions must resolve them through text()/at() instead of indexing
/// Input directly; the streaming parser guarantees the window covers
/// every span reachable from an action's arguments at apply time —
/// *provided* the action declares ReadsInput (see Action below).
///
/// Pool is the parse's value arena (may be null): pair/list-building
/// actions route node allocation through it via the pool-backed Value
/// constructors.
struct ParseContext {
  std::string_view Input;
  void *User = nullptr;
  uint64_t Base = 0;
  ValuePoolRef Pool;

  /// The input byte at absolute offset \p AbsOff.
  char at(uint64_t AbsOff) const {
    return Input[static_cast<size_t>(AbsOff - Base)];
  }
  /// The text covered by \p L (absolute span → window view).
  std::string_view text(const Lexeme &L) const {
    return Input.substr(static_cast<size_t>(L.Begin - Base),
                        L.End - L.Begin);
  }
};

/// Index into an ActionTable; NoAction means "no action attached".
using ActionId = int32_t;
constexpr ActionId NoAction = -1;

/// Custom action entry point: \p Args points at Arity consecutive values
/// (oldest first) that the engine is about to pop. A raw function
/// pointer — capture-less lambdas convert implicitly.
using ActionFn = Value (*)(ParseContext &Ctx, Value *Args);

/// Payload-carrying custom entry point (the escape hatch for behaviour
/// that genuinely needs captured state, e.g. chainl1's fold function).
using ActionPFn = Value (*)(ParseContext &Ctx, Value *Args,
                            const void *Payload);

/// The executable shape of an action. Grammar code rarely names these
/// directly — ActionTable's add* helpers and the Lang combinators pick
/// the kind.
enum class ActionKind : uint8_t {
  Custom,    ///< Fn(Ctx, Args)
  CustomP,   ///< PFn(Ctx, Args, Payload)
  Const,     ///< pop Arity, push ConstVal
  Select,    ///< pop Arity, push Args[Sel]
  Pair,      ///< pop 2, push pair(Args[0], Args[1]) (pool-backed)
  TokenText, ///< pop 1 token, push its lexeme text as a string
  ListNew,   ///< pop Arity, push list(Args[0..Arity)) (pool-backed)
  ListPush,  ///< pop 2, push Args[Sel] (a list) with the other arg
             ///< appended (copy-on-write; in place when uniquely owned)
  AddArgs,   ///< pop Arity, push int(Args[Sel] + Args[Sel2])
  AddImm,    ///< pop Arity, push int(Args[Sel] + Imm)
  TokenInt,  ///< pop Arity, push int(decimal value of token Args[Sel])
  MaxAccum,  ///< pop Arity, push maxAccumStep(Args[Sel], Args[Sel2]) —
             ///< the packed count+max statistics fold (see below)
};

/// The max-accumulate packed statistics scalar: a fold over a stream of
/// non-negative samples whose running state is one integer — element
/// count in the low 32 bits, running maximum in the high 32. This is the
/// devirtualized form of the tally-in-user-context pattern (ppm's
/// per-sample statistics): the hot per-element work becomes two scalar
/// micro-ops (TokenInt, MaxAccum) with the unpack in a cold root action.
/// Count cannot overflow into the max bits: inputs are bounded to 4 GiB
/// (32-bit lexeme offsets) and every sample is at least one byte. The
/// sample domain is [0, 2^32): negative samples clamp to 0 and larger
/// ones saturate to 2^32-1 (still above any 32-bit bound a consumer can
/// compare against, so out-of-range detection survives saturation); all
/// arithmetic is unsigned so a saturated maximum never corrupts the
/// count half of the pack.
inline int64_t maxAccumStep(int64_t Acc, int64_t Sample) {
  const uint64_t A = static_cast<uint64_t>(Acc);
  uint64_t Max = A >> 32;
  const uint64_t S =
      Sample < 0 ? 0
                 : Sample > 0xffffffffLL ? 0xffffffffull
                                         : static_cast<uint64_t>(Sample);
  if (S > Max)
    Max = S;
  return static_cast<int64_t>((Max << 32) | ((A & 0xffffffffull) + 1));
}
inline int64_t maxAccumCount(int64_t Acc) {
  return static_cast<int64_t>(static_cast<uint64_t>(Acc) & 0xffffffffull);
}
inline int64_t maxAccumMax(int64_t Acc) {
  return static_cast<int64_t>(static_cast<uint64_t>(Acc) >> 32);
}

/// The decimal value of the lexeme \p L (leading digits; parsing stops
/// at the first non-digit). The TokenInt kind and grammars' spanInt both
/// resolve through this so their semantics cannot drift.
inline int64_t lexemeInt(const ParseContext &Ctx, const Lexeme &L) {
  int64_t V = 0;
  for (uint32_t I = L.Begin; I < L.End; ++I) {
    char C = Ctx.at(I);
    if (C < '0' || C > '9')
      break;
    V = V * 10 + (C - '0');
  }
  return V;
}

/// A semantic action with fixed arity. Small tagged record; the only
/// potentially-allocating members (ConstVal, PayloadOwner, Name) are
/// cold.
struct Action {
  int Arity = 0;
  ActionKind Kind = ActionKind::Custom;
  /// False when the action provably never reads lexeme text through
  /// ParseContext::text()/at(). All built-in kinds except TokenText are
  /// false; Custom defaults to true (conservative).
  bool ReadsInput = true;
  int16_t Sel = 0, Sel2 = 0;
  int64_t Imm = 0;
  ActionFn Fn = nullptr;
  ActionPFn PFn = nullptr;
  const void *Payload = nullptr;
  std::shared_ptr<const void> PayloadOwner; ///< keeps Payload alive (cold)
  Value ConstVal;
  std::string Name; ///< for grammar printers / debugging
};

/// The hot-loop projection of an Action: one 16-byte POD per action,
/// carrying exactly what the engines' dispatch switch needs. Scalar
/// constants are folded to immediates at registration, so the common
/// micro-ops never touch the fat Action record at all; everything else
/// (customs, structure building, non-scalar constants) takes the MSlow
/// escape into ValueStack::apply.
struct MicroOp {
  enum Kind : uint8_t {
    MUnit,    ///< push unit (after popping Arity)
    MInt,     ///< push integer(Imm)
    MBool,    ///< push boolean(Imm != 0)
    MSelect,  ///< push Args[Sel]
    MAddArgs, ///< push int(Args[Sel] + Args[Sel2])
    MAddImm,  ///< push int(Args[Sel] + Imm)
    MTokInt,  ///< push int(decimal of token Args[Sel]) — reads input
    MMaxAcc,  ///< push maxAccumStep(Args[Sel], Args[Sel2])
    MNop,     ///< identity (a Select reduced to arity 1 of its only arg)
    MSlow     ///< full dispatch via the Action record
  };
  uint8_t K = MSlow;
  uint8_t Arity = 0;
  int16_t Sel = 0, Sel2 = 0;
  /// Occurrence flags (used by the staged machine's op pool).
  uint16_t Flags = 0;
  static constexpr uint16_t FRewritten = 1; ///< dead-token elision applied
  /// Immediate: the constant / addend — or, for an MSlow *pool
  /// occurrence* (engine op pools only, never the ActionTable's own
  /// micro table), the ActionId to dispatch through the full record.
  int64_t Imm = 0;
};

/// Registry of actions for one grammar.
class ActionTable {
public:
  /// Custom action: raw function pointer, no allocation. \p ReadsInput
  /// must stay true unless the callee never touches Ctx.text()/at().
  ActionId add(int Arity, ActionFn Fn, std::string Name = "act",
               bool ReadsInput = true) {
    assert(Arity >= 0 && "negative action arity");
    Action A;
    A.Arity = Arity;
    A.Kind = ActionKind::Custom;
    A.ReadsInput = ReadsInput;
    A.Fn = Fn;
    A.Name = std::move(Name);
    return push(std::move(A));
  }

  /// Custom action with a payload pointer. \p Owner (optional) keeps the
  /// payload alive for the table's lifetime.
  ActionId addP(int Arity, ActionPFn Fn, const void *Payload,
                std::shared_ptr<const void> Owner = nullptr,
                std::string Name = "actP", bool ReadsInput = true) {
    assert(Arity >= 0 && "negative action arity");
    Action A;
    A.Arity = Arity;
    A.Kind = ActionKind::CustomP;
    A.ReadsInput = ReadsInput;
    A.PFn = Fn;
    A.Payload = Payload;
    A.PayloadOwner = std::move(Owner);
    A.Name = std::move(Name);
    return push(std::move(A));
  }

  /// Pops \p Arity values, pushes the fixed value \p V.
  ActionId addConst(Value V, std::string Name = "const", int Arity = 0) {
    Action A;
    A.Arity = Arity;
    A.Kind = ActionKind::Const;
    A.ReadsInput = false;
    A.ConstVal = std::move(V);
    A.Name = std::move(Name);
    return push(std::move(A));
  }

  /// Pops \p Arity values, pushes Args[Idx].
  ActionId addSelect(int Arity, int Idx, std::string Name = "select") {
    assert(Idx >= 0 && Idx < Arity && "selected argument out of range");
    Action A;
    A.Arity = Arity;
    A.Kind = ActionKind::Select;
    A.ReadsInput = false;
    A.Sel = static_cast<int16_t>(Idx);
    A.Name = std::move(Name);
    return push(std::move(A));
  }

  /// Arity-2 action building a pair (the default `seq` semantics).
  ActionId addPair(std::string Name = "pair") {
    Action A;
    A.Arity = 2;
    A.Kind = ActionKind::Pair;
    A.ReadsInput = false;
    A.Name = std::move(Name);
    return push(std::move(A));
  }

  /// Arity-1 action materializing the popped token's text as a string.
  ActionId addTokenText(std::string Name = "text") {
    Action A;
    A.Arity = 1;
    A.Kind = ActionKind::TokenText;
    A.ReadsInput = true; // definitionally
    A.Name = std::move(Name);
    return push(std::move(A));
  }

  /// Pops \p Arity values, pushes them as a list (oldest first).
  ActionId addListNew(int Arity, std::string Name = "list") {
    Action A;
    A.Arity = Arity;
    A.Kind = ActionKind::ListNew;
    A.ReadsInput = false;
    A.Name = std::move(Name);
    return push(std::move(A));
  }

  /// Pops 2 values; Args[ListIdx] is a list, the other the element to
  /// append.
  ActionId addListPush(int ListIdx, std::string Name = "push") {
    assert((ListIdx == 0 || ListIdx == 1) && "list argument index");
    Action A;
    A.Arity = 2;
    A.Kind = ActionKind::ListPush;
    A.ReadsInput = false;
    A.Sel = static_cast<int16_t>(ListIdx);
    A.Name = std::move(Name);
    return push(std::move(A));
  }

  /// Pops \p Arity values, pushes int(Args[IdxA] + Args[IdxB]).
  ActionId addAddArgs(int Arity, int IdxA, int IdxB,
                      std::string Name = "add") {
    assert(IdxA >= 0 && IdxA < Arity && IdxB >= 0 && IdxB < Arity);
    Action A;
    A.Arity = Arity;
    A.Kind = ActionKind::AddArgs;
    A.ReadsInput = false;
    A.Sel = static_cast<int16_t>(IdxA);
    A.Sel2 = static_cast<int16_t>(IdxB);
    A.Name = std::move(Name);
    return push(std::move(A));
  }

  /// Pops \p Arity values, pushes int(Args[Idx] + Imm) — the count/
  /// accumulate shape.
  ActionId addAddImm(int Arity, int Idx, int64_t Imm,
                     std::string Name = "accum") {
    assert(Idx >= 0 && Idx < Arity);
    Action A;
    A.Arity = Arity;
    A.Kind = ActionKind::AddImm;
    A.ReadsInput = false;
    A.Sel = static_cast<int16_t>(Idx);
    A.Imm = Imm;
    A.Name = std::move(Name);
    return push(std::move(A));
  }

  /// Pops \p Arity values, pushes the decimal value of the token at
  /// \p Idx (lexemeInt). Reads lexeme text, definitionally.
  ActionId addTokenInt(int Arity, int Idx, std::string Name = "tokInt") {
    assert(Idx >= 0 && Idx < Arity);
    Action A;
    A.Arity = Arity;
    A.Kind = ActionKind::TokenInt;
    A.ReadsInput = true;
    A.Sel = static_cast<int16_t>(Idx);
    A.Name = std::move(Name);
    return push(std::move(A));
  }

  /// Pops \p Arity values, pushes maxAccumStep(Args[AccIdx],
  /// Args[ElemIdx]) — the packed count+max statistics fold.
  ActionId addMaxAccum(int Arity, int AccIdx, int ElemIdx,
                       std::string Name = "maxAcc") {
    assert(AccIdx >= 0 && AccIdx < Arity && ElemIdx >= 0 &&
           ElemIdx < Arity);
    Action A;
    A.Arity = Arity;
    A.Kind = ActionKind::MaxAccum;
    A.ReadsInput = false;
    A.Sel = static_cast<int16_t>(AccIdx);
    A.Sel2 = static_cast<int16_t>(ElemIdx);
    A.Name = std::move(Name);
    return push(std::move(A));
  }

  const Action &get(ActionId Id) const {
    assert(Id >= 0 && static_cast<size_t>(Id) < Actions.size() &&
           "action id out of range");
    return Actions[Id];
  }

  /// Raw table base for hot loops that index repeatedly.
  const Action *data() const { return Actions.data(); }

  /// The compact micro-op table, parallel to the actions.
  const MicroOp *micro() const { return Micro.data(); }

  size_t size() const { return Actions.size(); }

  /// True when any registered action may read lexeme text. The streaming
  /// parser consults this once per stream to decide whether its retain
  /// watermark needs tracking at all.
  bool readsInput() const { return AnyReadsInput; }

private:
  ActionId push(Action A) {
    AnyReadsInput |= A.ReadsInput;
    MicroOp M;
    if (A.Arity > 255) {
      // Wider than the micro-op table: stay on the full-record path
      // (which carries the real int arity) instead of truncating.
      Micro.push_back(M); // MSlow
      ActionId Id = static_cast<ActionId>(Actions.size());
      Actions.push_back(std::move(A));
      return Id;
    }
    M.Arity = static_cast<uint8_t>(A.Arity);
    M.Sel = A.Sel;
    M.Sel2 = A.Sel2;
    switch (A.Kind) {
    case ActionKind::Const:
      if (A.ConstVal.isInt()) {
        M.K = MicroOp::MInt;
        M.Imm = A.ConstVal.asInt();
      } else if (A.ConstVal.isUnit()) {
        M.K = MicroOp::MUnit;
      } else if (A.ConstVal.isBool()) {
        M.K = MicroOp::MBool;
        M.Imm = A.ConstVal.asBool() ? 1 : 0;
      }
      break;
    case ActionKind::Select:
      M.K = MicroOp::MSelect;
      break;
    case ActionKind::AddArgs:
      M.K = MicroOp::MAddArgs;
      break;
    case ActionKind::AddImm:
      M.K = MicroOp::MAddImm;
      M.Imm = A.Imm;
      break;
    case ActionKind::TokenInt:
      M.K = MicroOp::MTokInt;
      break;
    case ActionKind::MaxAccum:
      M.K = MicroOp::MMaxAcc;
      break;
    default:
      break; // MSlow
    }
    ActionId Id = static_cast<ActionId>(Actions.size());
    Micro.push_back(M);
    Actions.push_back(std::move(A));
    return Id;
  }

  std::vector<Action> Actions;
  std::vector<MicroOp> Micro;
  bool AnyReadsInput = false;
};

/// A growable value stack shared by all engines. Running an action pops
/// its arity and pushes its result.
///
/// Hand-managed storage (not std::vector): the hot loops run a push, a
/// pop or a micro-op millions of times per parse, and the vector's
/// resize/erase paths cost more than the operations themselves. Here a
/// push is a capacity compare plus a 24-byte move, and an arity-k
/// micro-op destroys k-1 slots and overwrites one, with no size
/// bookkeeping beyond the Top pointer.
///
/// The hot writes build their Value in the slot it ends in: the token
/// push (pushToken), the ε constants (pushUnit, pushCopy) and every
/// scalar micro-op result. A Value built in a local and then moved in
/// is stored with 1- to 8-byte writes and reloaded as one 16-byte
/// payload, a load store-to-load forwarding cannot serve (engine/
/// README.md "The Sink policy"). Each in-place write constructs its
/// prvalue directly in the slot (C++17 guaranteed elision); one that
/// overwrites a live slot first releases a boxed occupant, as Value's
/// move assignment does.
class ValueStack {
public:
  ValueStack() = default;
  ValueStack(const ValueStack &) = delete;
  ValueStack &operator=(const ValueStack &) = delete;
  ValueStack(ValueStack &&O) noexcept
      : Base(O.Base), Top(O.Top), End(O.End) {
    O.Base = O.Top = O.End = nullptr;
  }
  ValueStack &operator=(ValueStack &&O) noexcept {
    std::swap(Base, O.Base);
    std::swap(Top, O.Top);
    std::swap(End, O.End);
    return *this;
  }
  ~ValueStack() {
    clear();
    ::operator delete(Base);
  }

  void push(Value V) { ::new (slot()) Value(std::move(V)); }

  /// Pushes a token span built in place.
  void pushToken(TokenId Tok, uint32_t Begin, uint32_t End) {
    ::new (slot()) Value(Value::token(Tok, Begin, End));
  }
  /// Pushes a unit built in place.
  void pushUnit() { ::new (slot()) Value(); }
  /// Pushes a copy of \p V made in place.
  void pushCopy(const Value &V) { ::new (slot()) Value(V); }

  Value pop() {
    assert(Top != Base && "value stack underflow");
    --Top;
    Value V = std::move(*Top);
    Top->~Value();
    return V;
  }

  /// Applies \p A in place: the devirtualized dispatch switch — this is
  /// the hot path of every value-producing engine. The scalar micro-ops
  /// (constants, selection, integer accumulation) inline into the
  /// residual loops; structure-building and custom kinds stay out of
  /// line so the dispatch doesn't bloat the scan code around it.
  void apply(const Action &A, ParseContext &Ctx) {
    assert(size() >= static_cast<size_t>(A.Arity) &&
           "value stack underflow in action");
    Value *Args = Top - A.Arity;
    Value R;
    switch (A.Kind) {
    case ActionKind::Custom:
      R = A.Fn(Ctx, Args); // one indirect call, no further hops
      break;
    case ActionKind::CustomP:
      R = A.PFn(Ctx, Args, A.Payload);
      break;
    case ActionKind::Const:
      R = A.ConstVal;
      break;
    case ActionKind::Select:
      R = std::move(Args[A.Sel]);
      break;
    case ActionKind::AddArgs:
      R = Value::integer(Args[A.Sel].asInt() + Args[A.Sel2].asInt());
      break;
    case ActionKind::AddImm:
      R = Value::integer(Args[A.Sel].asInt() + A.Imm);
      break;
    case ActionKind::TokenInt:
      R = Value::integer(lexemeInt(Ctx, Args[A.Sel].asToken()));
      break;
    case ActionKind::MaxAccum:
      R = Value::integer(maxAccumStep(Args[A.Sel].asInt(),
                                      Args[A.Sel2].asInt()));
      break;
    default:
      R = applySlow(A, Ctx, Args); // pair/list/text building
      break;
    }
    replaceTop(static_cast<size_t>(A.Arity), std::move(R));
  }

  /// Runs one non-MSlow micro-op directly (the caller already has the
  /// op — e.g. from the staged machine's op pool). Results are built in
  /// the bottom argument slot in place — no temporary Value round trip.
  /// \p Ctx is consulted only by the input-reading kinds (MTokInt).
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((always_inline)) inline
#endif
  void applyMicroOp(const MicroOp M, ParseContext &Ctx) {
    assert(M.K != MicroOp::MSlow && "raw dispatch needs a resolved op");
    assert(size() >= M.Arity && "value stack underflow in action");
    if (M.K == MicroOp::MNop)
      return; // identity: the single argument is already the result
    if (M.Arity == 0) {
      // Only the constant kinds have arity 0.
      Value *Slot = slot();
      if (M.K == MicroOp::MInt)
        ::new (Slot) Value(Value::integer(M.Imm));
      else if (M.K == MicroOp::MBool)
        ::new (Slot) Value(Value::boolean(M.Imm != 0));
      else
        ::new (Slot) Value();
      return;
    }
    Value *Args = Top - M.Arity;
    switch (M.K) {
    case MicroOp::MUnit:
      dropAbove(Args);
      setUnit(Args);
      return;
    case MicroOp::MInt:
      dropAbove(Args);
      setInt(Args, M.Imm);
      return;
    case MicroOp::MBool:
      dropAbove(Args);
      setBool(Args, M.Imm != 0);
      return;
    case MicroOp::MSelect:
      if (M.Sel != 0)
        Args[0] = std::move(Args[M.Sel]);
      dropAbove(Args);
      return;
    case MicroOp::MAddArgs: {
      int64_t R = Args[M.Sel].asInt() + Args[M.Sel2].asInt();
      dropAbove(Args);
      setInt(Args, R);
      return;
    }
    case MicroOp::MAddImm: {
      int64_t R = Args[M.Sel].asInt() + M.Imm;
      dropAbove(Args);
      setInt(Args, R);
      return;
    }
    case MicroOp::MTokInt:
      // Out of line: the decimal parse loop would bloat every residual
      // loop this switch inlines into.
      applyTokInt(M, Ctx);
      return;
    case MicroOp::MMaxAcc: {
      int64_t R = maxAccumStep(Args[M.Sel].asInt(), Args[M.Sel2].asInt());
      dropAbove(Args);
      setInt(Args, R);
      return;
    }
    default:
      return;
    }
  }

  /// The engines' hot-loop dispatch: runs action \p Id off the compact
  /// micro-op table, escaping to the full apply switch only for the
  /// non-scalar kinds. Forced inline — the whole point is that the
  /// switch lives *in* the residual loops, and GCC's size heuristics
  /// otherwise outline it back into a call.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((always_inline)) inline
#endif
  void applyMicro(const ActionTable &AT, ActionId Id, ParseContext &Ctx) {
    const MicroOp M = AT.micro()[Id];
    if (M.K == MicroOp::MSlow) {
      applySlowId(AT, Id, Ctx);
      return;
    }
    applyMicroOp(M, Ctx);
  }

  /// The sink-facing application of one staged-machine *pool occurrence*
  /// (CompiledParser::OpPool): a resolved micro-op runs through the
  /// inline switch; an MSlow occurrence carries its ActionId in Imm and
  /// escapes to the out-of-line full dispatch. Every value-producing
  /// driver (ValueSink, whole-buffer and streamed, and the event replay
  /// in tests) funnels through this one helper so the dispatch
  /// semantics cannot drift between them.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((always_inline)) inline
#endif
  void applyPooled(const MicroOp Op, const ActionTable &AT,
                   ParseContext &Ctx) {
    if (Op.K != MicroOp::MSlow)
      applyMicroOp(Op, Ctx);
    else
      applySlowId(AT, static_cast<ActionId>(Op.Imm), Ctx);
  }

  /// Out-of-line full dispatch for action \p Id — the MSlow escape the
  /// residual loops call so the big apply switch never inlines into
  /// their scan code.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  void applySlowId(const ActionTable &AT, ActionId Id, ParseContext &Ctx) {
    apply(AT.data()[Id], Ctx);
  }

  /// Runs a pre-fused ε-chain program: \p Ops actions back to back, with
  /// the chain's precomputed worst-case growth reserved up front so the
  /// inner applies never reallocate (see CompiledParser::EpsProgram).
  void runChain(const ActionTable &AT, const ActionId *Ops, uint32_t Len,
                uint32_t MaxGrow, ParseContext &Ctx) {
    if (static_cast<size_t>(End - Top) < MaxGrow)
      grow(MaxGrow);
    for (uint32_t I = 0; I < Len; ++I)
      applyMicro(AT, Ops[I], Ctx);
  }

  size_t size() const { return static_cast<size_t>(Top - Base); }
  void clear() {
    while (Top != Base)
      (--Top)->~Value();
  }

  /// The final-result policy shared by every engine: the single
  /// remaining value, or all values as a list via one O(n) copy
  /// bottom-to-top (the former pop-and-insert-front was O(n²)).
  /// Empties the stack.
  Value collect() {
    if (size() == 1)
      return pop();
    ValueList L(Base, Top);
    clear();
    return Value::list(std::move(L));
  }

  /// The values bottom-to-top (oldest first). Engines collect final
  /// results with one O(n) copy instead of popping one value at a time.
  const Value *data() const { return Base; }

private:
  /// Reserves the next slot (uninitialized) and makes it part of the
  /// stack; the caller constructs a Value in it.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((always_inline)) inline
#endif
  Value *slot() {
    if (Top == End)
      grow(1);
    return Top++;
  }

  /// The in-place scalar writers for a live slot: release a boxed
  /// occupant, then build the scalar where it lands.
  static void setUnit(Value *Slot) {
    Slot->~Value();
    ::new (Slot) Value();
  }
  static void setInt(Value *Slot, int64_t I) {
    Slot->~Value();
    ::new (Slot) Value(Value::integer(I));
  }
  static void setBool(Value *Slot, bool B) {
    Slot->~Value();
    ::new (Slot) Value(Value::boolean(B));
  }

  /// Destroys everything above \p Slot and makes it the new top —
  /// Slot itself becomes the result position.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((always_inline)) inline
#endif
  void dropAbove(Value *Slot) {
    while (Top != Slot + 1)
      (--Top)->~Value();
  }

  /// Pops \p Arity arguments and pushes \p R — the tail of every apply.
  /// Arity ≥ 1 overwrites the bottom argument slot in place; only the
  /// arity-0 case can grow.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((always_inline)) inline
#endif
  void replaceTop(size_t Arity, Value R) {
    if (Arity == 0) {
      push(std::move(R));
      return;
    }
    Value *Args = Top - Arity;
    while (Top != Args + 1)
      (--Top)->~Value();
    *Args = std::move(R);
  }

  /// Ensures room for \p Need more values (out of line; doubles).
  void grow(size_t Need);

  /// MTokInt body (Action.cpp): out of line so the decimal parse loop
  /// never inlines into the residual loops' dispatch switch.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  void applyTokInt(const MicroOp M, ParseContext &Ctx);

  /// The non-scalar kinds (custom calls, pair/list/string building),
  /// out of line (Action.cpp).
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  Value applySlow(const Action &A, ParseContext &Ctx, Value *Args);

  Value *Base = nullptr; ///< bottom of stack
  Value *Top = nullptr;  ///< next free slot
  Value *End = nullptr;  ///< end of capacity
};

} // namespace flap

#endif // FLAP_CFE_ACTION_H
