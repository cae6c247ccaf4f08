//===- cfe/Value.cpp - Semantic values ---------------------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "cfe/Value.h"

#include "support/StrUtil.h"

using namespace flap;

void Value::destroyNode(detail::ValueNode *N) noexcept {
  // A pair hands its second component's node to the next iteration
  // instead of recursing into it, so right-nested chains (cons lists,
  // operator spines) free in constant stack depth.
  while (N) {
    ValuePool *Pool = N->Pool;
    detail::ValueNode *Next = nullptr;
    ValuePool::Slot S = ValuePool::PairSlot;
    switch (static_cast<Tag>(N->Kind)) {
    case Tag::Pair: {
      auto *B = static_cast<detail::ValueBox<ValuePair> *>(N);
      Value &Second = B->Payload.second;
      if (Second.hasPtr()) {
        Second.T = Tag::Unit;
        if (dropRef(Second.R.N))
          Next = Second.R.N;
      }
      B->~ValueBox();
      break;
    }
    case Tag::List:
      static_cast<detail::ValueBox<ValueList> *>(N)->~ValueBox();
      S = ValuePool::ListSlot;
      break;
    default:
      assert(static_cast<Tag>(N->Kind) == Tag::Str && "not a boxed kind");
      static_cast<detail::ValueBox<std::string> *>(N)->~ValueBox();
      ::operator delete(N); // strings are never pooled
      return;
    }
    if (Pool)
      Pool->deallocate(N, S);
    else
      ::operator delete(N);
    N = Next;
  }
}

bool Value::operator==(const Value &O) const {
  if (T != O.T)
    return false;
  if (isUnit())
    return true;
  if (isBool())
    return asBool() == O.asBool();
  if (isInt())
    return asInt() == O.asInt();
  if (isReal())
    return asReal() == O.asReal();
  if (isToken())
    return asToken() == O.asToken();
  if (isString())
    return asString() == O.asString();
  if (isPair())
    return asPair().first == O.asPair().first &&
           asPair().second == O.asPair().second;
  if (isList()) {
    const ValueList &A = asList(), &B = O.asList();
    if (A.size() != B.size())
      return false;
    for (size_t I = 0; I < A.size(); ++I)
      if (A[I] != B[I])
        return false;
    return true;
  }
  return false;
}

std::string Value::str() const {
  if (isUnit())
    return "()";
  if (isBool())
    return asBool() ? "true" : "false";
  if (isInt())
    return format("%lld", static_cast<long long>(asInt()));
  if (isReal())
    return format("%g", asReal());
  if (isToken()) {
    const Lexeme &L = asToken();
    return format("[tok:%d@%u-%u]", L.Tok, L.Begin, L.End);
  }
  if (isString())
    return "\"" + escapeString(asString()) + "\"";
  if (isPair())
    return "(" + asPair().first.str() + " . " + asPair().second.str() + ")";
  if (isList()) {
    std::vector<std::string> Parts;
    for (const Value &E : asList())
      Parts.push_back(E.str());
    return "[" + join(Parts, " ") + "]";
  }
  return "?";
}
