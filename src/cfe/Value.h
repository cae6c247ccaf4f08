//===- cfe/Value.h - Semantic values ----------------------------*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime semantic values produced by parser actions. flap (§5.5)
/// "supports semantic actions — i.e. constructing and returning ASTs or
/// other values when parsing succeeds". All engines in this repository
/// evaluate actions over this Value type so differential tests can compare
/// full results, not just accept/reject.
///
/// Scalars (unit, bool, int, double, token spans) are unboxed; strings,
/// pairs and lists are shared immutable nodes with an intrusive atomic
/// refcount. Pair and list nodes can optionally come from a ValuePool —
/// a freelist arena owned by the per-parse scratch — so the hot loop
/// builds structure without touching the global allocator. Pooled and
/// heap values are indistinguishable through the API (same refcounting,
/// same structural equality); a value escaping its parse
/// (StreamParser::take(), a parse result outliving its ParseScratch)
/// keeps the pool pages alive because the pool outlives its handles
/// while any of its nodes is live. See engine/README.md "Arena-pooled
/// values" for the lifetime rules.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_CFE_VALUE_H
#define FLAP_CFE_VALUE_H

#include "lexer/Token.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <new>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace flap {

class Value;
class ValuePool;
using ValuePair = std::pair<Value, Value>;
using ValueList = std::vector<Value>;

namespace detail {

/// The fixed header every boxed value node (string, pair, list) starts
/// with. Refs is atomic so values may be copied and dropped on any
/// thread; Kind names the payload type so a node can destroy itself;
/// Pool is the arena the node came from, null for the plain heap. The
/// header carries no pool *handle*: a pool's lifetime is tracked by its
/// live-node count instead (see ValuePool).
struct ValueNode {
  std::atomic<uint32_t> Refs;
  uint8_t Kind;
  ValuePool *Pool;
};

/// A node header followed by its payload.
template <typename T> struct ValueBox : ValueNode {
  T Payload;

  template <typename... Args>
  ValueBox(uint8_t Kind, ValuePool *Pool, Args &&...A)
      : ValueNode{{1}, Kind, Pool}, Payload(std::forward<Args>(A)...) {}
};

} // namespace detail

/// A dynamically-typed semantic value.
///
/// Representation: a hand-rolled tagged union, not std::variant. The
/// value stack moves/destroys millions of these per parse, and the
/// variant's visit-based special members were the single largest cost of
/// panel A after action devirtualization: a Value is 24 bytes (a tag and
/// a 16-byte payload union), a move is a plain copy of it and a scalar
/// destroy a single compare. All boxed kinds (string/pair/list) share
/// one intrusive node pointer — the tag recovers the payload type, the
/// node's header says how to free it.
class Value {
  enum class Tag : uint8_t {
    Unit,
    Bool,
    Int,
    Real,
    Token,
    // Boxed tags from here on: hasPtr() is one compare.
    Str,
    Pair,
    List
  };

  Tag T = Tag::Unit;
  union Rep {
    Rep() : I(0) {}
    bool B;
    int64_t I;
    double D;
    Lexeme L;
    detail::ValueNode *N;
  } R;

  bool hasPtr() const { return T >= Tag::Str; }

  template <typename P, typename... Args>
  static Value box(Tag T, ValuePool *Pool, Args &&...A);

  /// Drops one reference to \p N; true when it was the last. The sole
  /// owner skips the atomic read-modify-write: a count of 1 read by the
  /// holder of that one reference cannot change under it.
  static bool dropRef(detail::ValueNode *N) noexcept {
    return N->Refs.load(std::memory_order_acquire) == 1 ||
           N->Refs.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }
  void release() noexcept {
    if (dropRef(R.N))
      destroyNode(R.N);
  }
  bool unique() const {
    return R.N->Refs.load(std::memory_order_acquire) == 1;
  }
  static void destroyNode(detail::ValueNode *N) noexcept;

public:
  Value() = default;

  Value(const Value &O) : T(O.T), R(O.R) {
    if (hasPtr())
      R.N->Refs.fetch_add(1, std::memory_order_relaxed);
  }
  /// Moving leaves \p O a unit.
  Value(Value &&O) noexcept : T(O.T), R(O.R) { O.T = Tag::Unit; }
  Value &operator=(Value &&O) noexcept {
    if (this == &O)
      return *this;
    // Take O's payload before dropping ours: O may live inside the node
    // this value releases.
    const Value Old(std::move(*this));
    T = O.T;
    R = O.R;
    O.T = Tag::Unit;
    return *this;
  }
  Value &operator=(const Value &O) {
    if (this != &O)
      *this = Value(O);
    return *this;
  }
  ~Value() {
    if (hasPtr())
      release();
  }

  static Value unit() { return Value(); }
  static Value boolean(bool B) {
    Value V;
    V.T = Tag::Bool;
    V.R.B = B;
    return V;
  }
  static Value integer(int64_t I) {
    Value V;
    V.T = Tag::Int;
    V.R.I = I;
    return V;
  }
  static Value real(double D) {
    Value V;
    V.T = Tag::Real;
    V.R.D = D;
    return V;
  }
  static Value token(TokenId Tok, uint32_t Begin, uint32_t End) {
    Value V;
    V.T = Tag::Token;
    V.R.L = Lexeme{Tok, Begin, End};
    return V;
  }
  static Value token(const Lexeme &L) {
    Value V;
    V.T = Tag::Token;
    V.R.L = L;
    return V;
  }
  static Value string(std::string S);
  static Value pair(Value A, Value B);
  static Value list(ValueList L);

  //===--------------------------------------------------------------===//
  // Pool-backed constructors: identical semantics, arena-backed nodes.
  // A null pool degrades to the heap constructors above.
  //===--------------------------------------------------------------===//

  static Value pair(const std::shared_ptr<ValuePool> &Pool, Value A,
                    Value B);
  static Value list(const std::shared_ptr<ValuePool> &Pool, ValueList L);

  /// \p ListV (a list value) with \p Elem appended. Mutates in place when
  /// the node is uniquely owned (the accumulator discipline of `star`),
  /// copies otherwise. Nodes are created non-const, so the cast is sound.
  static Value listAppend(const std::shared_ptr<ValuePool> &Pool,
                          Value ListV, Value Elem) {
    assert(ListV.isList() && "listAppend needs a list");
    if (ListV.unique()) {
      const_cast<ValueList &>(ListV.asList()).push_back(std::move(Elem));
      return ListV;
    }
    ValueList L = ListV.asList();
    L.push_back(std::move(Elem));
    return list(Pool, std::move(L));
  }

  /// \p ListV reversed; in place when uniquely owned.
  static Value listReversed(const std::shared_ptr<ValuePool> &Pool,
                            Value ListV) {
    assert(ListV.isList() && "listReversed needs a list");
    if (ListV.unique()) {
      ValueList &L = const_cast<ValueList &>(ListV.asList());
      std::reverse(L.begin(), L.end());
      return ListV;
    }
    ValueList L(ListV.asList().rbegin(), ListV.asList().rend());
    return list(Pool, std::move(L));
  }

  bool isUnit() const { return T == Tag::Unit; }
  bool isBool() const { return T == Tag::Bool; }
  bool isInt() const { return T == Tag::Int; }
  bool isReal() const { return T == Tag::Real; }
  bool isToken() const { return T == Tag::Token; }
  bool isString() const { return T == Tag::Str; }
  bool isPair() const { return T == Tag::Pair; }
  bool isList() const { return T == Tag::List; }
  /// Scalars provably hold no input references (streaming retain
  /// watermarks rely on this classification). Strings qualify: they own
  /// a copy of their bytes, unlike token spans.
  bool isScalar() const {
    return T != Tag::Token && T != Tag::Pair && T != Tag::List;
  }

  bool asBool() const {
    assert(isBool() && "value is not a bool");
    return R.B;
  }
  int64_t asInt() const {
    assert(isInt() && "value is not an int");
    return R.I;
  }
  double asReal() const {
    assert(isReal() && "value is not a real");
    return R.D;
  }
  const Lexeme &asToken() const {
    assert(isToken() && "value is not a token");
    return R.L;
  }
  const std::string &asString() const {
    assert(isString() && "value is not a string");
    return static_cast<const detail::ValueBox<std::string> *>(R.N)->Payload;
  }
  const ValuePair &asPair() const;
  const ValueList &asList() const;

  /// Deep structural equality (for differential tests).
  bool operator==(const Value &O) const;
  bool operator!=(const Value &O) const { return !(*this == O); }

  /// Debug rendering, e.g. `(3 . [tok:atom@2-5])`.
  std::string str() const;
};

/// A freelist arena for pair/list nodes. One pool per parse scratch;
/// nodes recycle through their size class's freelist as values die, so
/// a scratch reused across parses amortizes to zero allocation. The two
/// size classes (a pair node, a list node) are fixed at compile time.
///
/// Lifetime: the pool counts its live nodes. Handles (ValuePoolRef) are
/// shared_ptrs made by create(); when the last handle dies with no live
/// node the pool is freed at once, otherwise it is orphaned and freed by
/// whichever node free brings the count to zero — so a value escaping
/// its parse keeps the pages alive without any node holding a handle.
///
/// Not thread-safe. The ownership rule is *single owner at a time*: at
/// any moment exactly one thread may allocate from or deallocate into a
/// pool — and since every pooled value destroys into its pool's
/// freelist, that covers destroying values built from it, as well as
/// dropping the last handle while values are live. Ownership may move
/// between threads, but only across a synchronization point (a joined
/// task, a mutex-guarded handoff — see engine/Serve.h's pool bank and
/// engine/Shard.h's per-worker arenas), and the new owner announces
/// itself with adoptOwner(). Assert-enabled builds (every preset here)
/// enforce the rule: allocate/deallocate from a thread that neither
/// adopted the pool nor created it aborts with the owner check below
/// rather than racing the freelist. The Owner field exists in every
/// build so the class layout does not depend on NDEBUG: a consumer
/// compiled with -DNDEBUG may build pooled values that an assert-enabled
/// library then frees (tests/NdebugConsumerTest.cpp).
class ValuePool {
public:
  ValuePool(const ValuePool &) = delete;
  ValuePool &operator=(const ValuePool &) = delete;

  /// A fresh pool behind a handle that runs the orphaning protocol.
  static std::shared_ptr<ValuePool> create() {
    return std::shared_ptr<ValuePool>(new ValuePool,
                                      [](ValuePool *P) { P->dropHandle(); });
  }

  /// Declares the calling thread the pool's owner. Call at a transfer
  /// point, after the previous owner's accesses have been synchronized
  /// with (task join, mutex handoff). No-op in NDEBUG builds.
  void adoptOwner() noexcept {
#ifndef NDEBUG
    Owner.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }

  /// Releases ownership without naming a successor: the next thread to
  /// touch the pool claims it (the serving reply handoff, where the
  /// consumer thread is unknown at hand-off time). No-op in NDEBUG.
  void disownOwner() noexcept {
#ifndef NDEBUG
    Owner.store(std::thread::id(), std::memory_order_relaxed);
#endif
  }

  size_t pageCount() const { return Pages.size(); }
  /// Nodes allocated from this pool and not yet freed. Zero means no
  /// value anywhere still uses the pool (read it as the owner).
  size_t liveNodes() const { return Live; }

private:
  friend class Value;

  enum Slot : uint8_t { PairSlot, ListSlot, NumSlots };
  static constexpr size_t SlotBytes[NumSlots] = {
      sizeof(detail::ValueBox<ValuePair>),
      sizeof(detail::ValueBox<ValueList>)};

  struct FreeNode {
    FreeNode *Next;
  };

  ValuePool() = default;
  ~ValuePool() = default;

  void *allocate(Slot S) {
    checkOwner();
    void *P = Free[S];
    if (P) {
      Free[S] = Free[S]->Next;
    } else {
      const size_t Need = SlotBytes[S];
      if (Left < Need) {
        Pages.push_back(std::make_unique<char[]>(PageBytes));
        Cur = Pages.back().get();
        Left = PageBytes;
      }
      P = Cur;
      Cur += Need;
      Left -= Need;
    }
    ++Live;
    return P;
  }

  void deallocate(void *P, Slot S) noexcept {
    checkOwner();
    FreeNode *N = static_cast<FreeNode *>(P);
    N->Next = Free[S];
    Free[S] = N;
    if (--Live == 0 && Orphaned)
      delete this;
  }

  /// The last handle died: free now, or leave it to the last node.
  void dropHandle() noexcept {
    if (Live == 0) {
      delete this;
      return;
    }
    checkOwner();
    Orphaned = true;
  }

  /// The owner-affinity assert: the caller must be the owning thread.
  /// An unowned pool (disownOwner) is claimed by the first toucher — a
  /// debug-only CAS, so two threads racing to claim still abort.
  void checkOwner() noexcept {
#ifndef NDEBUG
    const std::thread::id Self = std::this_thread::get_id();
    std::thread::id Cur = Owner.load(std::memory_order_relaxed);
    if (Cur == Self)
      return;
    if (Cur == std::thread::id() &&
        Owner.compare_exchange_strong(Cur, Self, std::memory_order_relaxed))
      return;
    assert(false && "ValuePool touched off its owning thread: values "
                    "built from a pool must be destroyed on the thread "
                    "that owns it (adoptOwner at transfer points)");
#endif
  }

  static constexpr size_t PageBytes = 16 * 1024;
  FreeNode *Free[NumSlots] = {};
  size_t Live = 0;
  bool Orphaned = false;
  std::vector<std::unique_ptr<char[]>> Pages;
  char *Cur = nullptr;
  size_t Left = 0;
  std::atomic<std::thread::id> Owner{std::this_thread::get_id()};
};

/// Shared handle to a pool (make one with ValuePool::create()). Values
/// do not hold it; the pool outlives its last handle while any of its
/// nodes is live.
using ValuePoolRef = std::shared_ptr<ValuePool>;

template <typename P, typename... Args>
inline Value Value::box(Tag T, ValuePool *Pool, Args &&...A) {
  using Box = detail::ValueBox<P>;
  assert((!Pool || T != Tag::Str) && "strings are never pooled");
  void *M = Pool ? Pool->allocate(T == Tag::Pair ? ValuePool::PairSlot
                                                 : ValuePool::ListSlot)
                 : ::operator new(sizeof(Box));
  Value V;
  V.T = T;
  V.R.N = ::new (M)
      Box(static_cast<uint8_t>(T), Pool, std::forward<Args>(A)...);
  return V;
}

inline Value Value::string(std::string S) {
  return box<std::string>(Tag::Str, nullptr, std::move(S));
}
inline Value Value::pair(Value A, Value B) {
  return box<ValuePair>(Tag::Pair, nullptr, std::move(A), std::move(B));
}
inline Value Value::list(ValueList L) {
  return box<ValueList>(Tag::List, nullptr, std::move(L));
}
inline Value Value::pair(const ValuePoolRef &Pool, Value A, Value B) {
  return box<ValuePair>(Tag::Pair, Pool.get(), std::move(A), std::move(B));
}
inline Value Value::list(const ValuePoolRef &Pool, ValueList L) {
  return box<ValueList>(Tag::List, Pool.get(), std::move(L));
}

inline const ValuePair &Value::asPair() const {
  assert(isPair() && "value is not a pair");
  return static_cast<const detail::ValueBox<ValuePair> *>(R.N)->Payload;
}
inline const ValueList &Value::asList() const {
  assert(isList() && "value is not a list");
  return static_cast<const detail::ValueBox<ValueList> *>(R.N)->Payload;
}

} // namespace flap

#endif // FLAP_CFE_VALUE_H
