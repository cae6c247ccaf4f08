//===- cfe/Action.cpp - Value-stack action dispatch ---------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// The out-of-line halves of ValueStack: growth, the MTokInt body and
/// the structure-building kinds. Pair and list nodes come from
/// ParseContext::Pool when it is set (the engines) and from the heap
/// when it is null (the Fig. 9 reference interpreter).
///
//===----------------------------------------------------------------------===//

#include "cfe/Action.h"

using namespace flap;

void ValueStack::grow(size_t Need) {
  const size_t Len = size();
  size_t Cap = static_cast<size_t>(End - Base);
  size_t NewCap = Cap ? Cap * 2 : 64;
  while (NewCap < Len + Need)
    NewCap *= 2;
  Value *NB =
      static_cast<Value *>(::operator new(NewCap * sizeof(Value)));
  for (size_t I = 0; I < Len; ++I) {
    ::new (static_cast<void *>(NB + I)) Value(std::move(Base[I]));
    Base[I].~Value();
  }
  ::operator delete(Base);
  Base = NB;
  Top = NB + Len;
  End = NB + NewCap;
}

void ValueStack::applyTokInt(const MicroOp M, ParseContext &Ctx) {
  Value *Args = Top - M.Arity;
  int64_t V = lexemeInt(Ctx, Args[M.Sel].asToken());
  dropAbove(Args);
  setInt(Args, V);
}

Value ValueStack::applySlow(const Action &A, ParseContext &Ctx,
                            Value *Args) {
  switch (A.Kind) {
  case ActionKind::Pair:
    return Value::pair(Ctx.Pool, std::move(Args[0]), std::move(Args[1]));
  case ActionKind::TokenText:
    return Value::string(std::string(Ctx.text(Args[0].asToken())));
  case ActionKind::ListNew: {
    ValueList L;
    L.reserve(static_cast<size_t>(A.Arity));
    for (int I = 0; I < A.Arity; ++I)
      L.push_back(std::move(Args[I]));
    return Value::list(Ctx.Pool, std::move(L));
  }
  case ActionKind::ListPush:
    return Value::listAppend(Ctx.Pool, std::move(Args[A.Sel]),
                             std::move(Args[1 - A.Sel]));
  default:
    break;
  }
  assert(false && "scalar kind reached applySlow");
  return Value();
}
