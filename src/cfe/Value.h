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
/// pairs and lists are shared immutable heap nodes. Pair and list nodes
/// can optionally come from a ValuePool — a freelist arena owned by the
/// per-parse scratch — so the hot loop builds structure without touching
/// the global allocator. Pooled and heap values are indistinguishable
/// through the API (same shared_ptr discipline, same structural
/// equality); a value escaping its parse (StreamParser::take(), a parse
/// result outliving its ParseScratch) keeps the pool pages alive through
/// the nodes' shared ownership. See engine/README.md "Arena-pooled
/// values" for the lifetime rules.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_CFE_VALUE_H
#define FLAP_CFE_VALUE_H

#include "lexer/Token.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <new>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace flap {

class Value;
using ValuePair = std::pair<Value, Value>;
using ValueList = std::vector<Value>;

/// A freelist arena for pair/list nodes (control block + payload are
/// co-located by allocate_shared). One pool per parse scratch; nodes
/// recycle through their size-class freelist as values die, so a scratch
/// reused across parses amortizes to zero allocation.
///
/// Not thread-safe. The ownership rule is *single owner at a time*: at
/// any moment exactly one thread may allocate from or deallocate into a
/// pool — and since every pooled value destroys into its pool's
/// freelist, that covers destroying values built from it. Ownership may
/// move between threads, but only across a synchronization point (a
/// joined task, a mutex-guarded handoff — see engine/Serve.h's pool
/// bank and engine/Shard.h's per-worker arenas), and the new owner
/// announces itself with adoptOwner(). Assert-enabled builds (every
/// preset here) enforce the rule: allocate/deallocate from a thread that
/// neither adopted the pool nor created it aborts with the owner check
/// below rather than racing the freelist. The Owner field exists in every
/// build so the class layout does not depend on NDEBUG: a consumer
/// compiled with -DNDEBUG may construct a pool that an assert-enabled
/// library then checks (tests/NdebugConsumerTest.cpp).
class ValuePool {
public:
  ValuePool() = default;
  ValuePool(const ValuePool &) = delete;
  ValuePool &operator=(const ValuePool &) = delete;

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

  void *allocate(size_t Bytes) {
    checkOwner();
    SizeClass *C = classOf(Bytes);
    if (!C)
      return ::operator new(Bytes);
    if (C->Free) {
      FreeNode *N = C->Free;
      C->Free = N->Next;
      return N;
    }
    size_t Need = align(Bytes);
    if (Left < Need) {
      Pages.push_back(std::make_unique<char[]>(PageBytes));
      Cur = Pages.back().get();
      Left = PageBytes;
    }
    void *P = Cur;
    Cur += Need;
    Left -= Need;
    return P;
  }

  void deallocate(void *P, size_t Bytes) noexcept {
    checkOwner();
    SizeClass *C = classOf(Bytes);
    if (!C) {
      ::operator delete(P);
      return;
    }
    FreeNode *N = static_cast<FreeNode *>(P);
    N->Next = C->Free;
    C->Free = N;
  }

  size_t pageCount() const { return Pages.size(); }

private:
  struct FreeNode {
    FreeNode *Next;
  };
  struct SizeClass {
    size_t Bytes = 0;
    FreeNode *Free = nullptr;
  };

  static size_t align(size_t Bytes) { return (Bytes + 15) & ~size_t(15); }

  /// The size class for \p Bytes, or nullptr when the request must take
  /// the plain heap (oversized, or more distinct node sizes than the
  /// table holds — deterministic per size, so deallocate agrees).
  SizeClass *classOf(size_t Bytes) {
    if (Bytes > PageBytes / 8)
      return nullptr;
    for (size_t I = 0; I < NumClasses; ++I)
      if (Classes[I].Bytes == Bytes)
        return &Classes[I];
    if (NumClasses == MaxClasses)
      return nullptr;
    Classes[NumClasses].Bytes = Bytes;
    return &Classes[NumClasses++];
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
  static constexpr size_t MaxClasses = 6;
  SizeClass Classes[MaxClasses];
  size_t NumClasses = 0;
  std::vector<std::unique_ptr<char[]>> Pages;
  char *Cur = nullptr;
  size_t Left = 0;
  std::atomic<std::thread::id> Owner{std::this_thread::get_id()};
};

/// Shared handle to a pool; nodes' control blocks hold a copy, so escaped
/// values pin the pages.
using ValuePoolRef = std::shared_ptr<ValuePool>;

/// Minimal allocator over a ValuePool for allocate_shared. A null pool
/// falls through to the global heap (both sides of the pair must agree,
/// which they do: the pool handle is fixed per allocation).
template <typename T> struct PoolAlloc {
  using value_type = T;

  ValuePoolRef Pool;

  explicit PoolAlloc(ValuePoolRef P) : Pool(std::move(P)) {}
  template <typename U>
  PoolAlloc(const PoolAlloc<U> &O) : Pool(O.Pool) {}

  T *allocate(size_t N) {
    if (N == 1 && Pool)
      return static_cast<T *>(Pool->allocate(sizeof(T)));
    return std::allocator<T>().allocate(N);
  }
  void deallocate(T *P, size_t N) noexcept {
    if (N == 1 && Pool)
      Pool->deallocate(P, sizeof(T));
    else
      std::allocator<T>().deallocate(P, N);
  }

  template <typename U> bool operator==(const PoolAlloc<U> &O) const {
    return Pool == O.Pool;
  }
  template <typename U> bool operator!=(const PoolAlloc<U> &O) const {
    return Pool != O.Pool;
  }
};

/// A dynamically-typed semantic value.
///
/// Representation: a hand-rolled tagged union, not std::variant. The
/// value stack moves/destroys millions of these per parse, and the
/// variant's visit-based special members were the single largest cost of
/// panel A after action devirtualization: a scalar move is a 16-byte
/// copy and a scalar destroy a single compare here. All boxed kinds
/// (string/pair/list) share one type-erased shared_ptr slot — the tag
/// recovers the payload type, the control block knows the real deleter.
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
  using BoxPtr = std::shared_ptr<const void>;

  Tag T = Tag::Unit;
  union Rep {
    Rep() : I(0) {}
    ~Rep() {} // managed by Value
    bool B;
    int64_t I;
    double D;
    Lexeme L;
    BoxPtr P;
  } R;

  bool hasPtr() const { return T >= Tag::Str; }

  Value(Tag T_, BoxPtr P) : T(T_) { new (&R.P) BoxPtr(std::move(P)); }

public:
  Value() = default;

  Value(const Value &O) : T(O.T) {
    if (hasPtr())
      new (&R.P) BoxPtr(O.R.P);
    else
      std::memcpy(static_cast<void *>(&R), static_cast<const void *>(&O.R),
                  sizeof(Rep)); // trivial members only (!hasPtr())
  }
  Value(Value &&O) noexcept : T(O.T) {
    if (hasPtr())
      new (&R.P) BoxPtr(std::move(O.R.P)); // leaves O's slot null
    else
      std::memcpy(static_cast<void *>(&R), static_cast<const void *>(&O.R),
                  sizeof(Rep)); // trivial members only (!hasPtr())
  }
  Value &operator=(Value &&O) noexcept {
    if (this == &O)
      return *this;
    if (hasPtr() && O.hasPtr()) {
      R.P = std::move(O.R.P);
      T = O.T;
      return *this;
    }
    if (hasPtr())
      R.P.~BoxPtr();
    T = O.T;
    if (O.hasPtr())
      new (&R.P) BoxPtr(std::move(O.R.P));
    else
      std::memcpy(static_cast<void *>(&R), static_cast<const void *>(&O.R),
                  sizeof(Rep)); // trivial members only (!hasPtr())
    return *this;
  }
  Value &operator=(const Value &O) {
    if (this != &O)
      *this = Value(O);
    return *this;
  }
  ~Value() {
    if (hasPtr())
      R.P.~BoxPtr();
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
  static Value string(std::string S) {
    return Value(Tag::Str,
                 std::make_shared<std::string>(std::move(S)));
  }
  static Value pair(Value A, Value B) {
    return Value(Tag::Pair,
                 std::make_shared<ValuePair>(std::move(A), std::move(B)));
  }
  static Value list(ValueList L) {
    return Value(Tag::List, std::make_shared<ValueList>(std::move(L)));
  }

  //===--------------------------------------------------------------===//
  // Pool-backed constructors: identical semantics, arena-backed nodes.
  // A null pool degrades to the heap constructors above.
  //===--------------------------------------------------------------===//

  static Value pair(const ValuePoolRef &Pool, Value A, Value B) {
    if (!Pool)
      return pair(std::move(A), std::move(B));
    return Value(Tag::Pair, std::allocate_shared<ValuePair>(
                                PoolAlloc<ValuePair>(Pool), std::move(A),
                                std::move(B)));
  }
  static Value list(const ValuePoolRef &Pool, ValueList L) {
    if (!Pool)
      return list(std::move(L));
    return Value(Tag::List,
                 std::allocate_shared<ValueList>(PoolAlloc<ValueList>(Pool),
                                                 std::move(L)));
  }

  /// \p ListV (a list value) with \p Elem appended. Mutates in place when
  /// the node is uniquely owned (the accumulator discipline of `star`),
  /// copies otherwise. Nodes are created non-const, so the cast is sound.
  static Value listAppend(const ValuePoolRef &Pool, Value ListV,
                          Value Elem) {
    assert(ListV.isList() && "listAppend needs a list");
    if (ListV.R.P.use_count() == 1) {
      const_cast<ValueList &>(ListV.asList()).push_back(std::move(Elem));
      return ListV;
    }
    ValueList L = ListV.asList();
    L.push_back(std::move(Elem));
    return list(Pool, std::move(L));
  }

  /// \p ListV reversed; in place when uniquely owned.
  static Value listReversed(const ValuePoolRef &Pool, Value ListV) {
    assert(ListV.isList() && "listReversed needs a list");
    if (ListV.R.P.use_count() == 1) {
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
    return *static_cast<const std::string *>(R.P.get());
  }
  const ValuePair &asPair() const {
    assert(isPair() && "value is not a pair");
    return *static_cast<const ValuePair *>(R.P.get());
  }
  const ValueList &asList() const {
    assert(isList() && "value is not a list");
    return *static_cast<const ValueList *>(R.P.get());
  }

  /// Deep structural equality (for differential tests).
  bool operator==(const Value &O) const;
  bool operator!=(const Value &O) const { return !(*this == O); }

  /// Debug rendering, e.g. `(3 . [tok:atom@2-5])`.
  std::string str() const;
};

} // namespace flap

#endif // FLAP_CFE_VALUE_H
