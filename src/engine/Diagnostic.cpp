//===- engine/Diagnostic.cpp - Structured parse diagnostics --------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "engine/Diagnostic.h"

#include "support/StrUtil.h"

namespace flap {

std::string formatParseErrorAt(uint64_t Off, const std::string &Expected,
                               const std::string &Where) {
  if (!Expected.empty())
    return format("parse error at offset %llu: expected %s",
                  static_cast<unsigned long long>(Off), Expected.c_str());
  return format("parse error at offset %llu in '%s'",
                static_cast<unsigned long long>(Off), Where.c_str());
}

std::string formatTrailingAt(uint64_t Off) {
  return format("parse error: trailing input at offset %llu",
                static_cast<unsigned long long>(Off));
}

std::string formatEntryRefusal(const std::string &Where) {
  return format("entry nonterminal '%s' has no value: dead-token elision "
                "compiled it away because it is not a declared entry "
                "(declare it as a compileFlapMulti root, or recognize only)",
                Where.c_str());
}

std::string formatLexemeLimitAt(uint64_t Off, const std::string &Where) {
  return format("lexeme at offset %llu in '%s' exceeds the 32-bit event "
                "length (4 GiB - 1 bytes)",
                static_cast<unsigned long long>(Off), Where.c_str());
}

std::string formatEmptyRecord(uint64_t Off, const std::string &Where) {
  return format("parse error at offset %llu: record entry nonterminal '%s' "
                "matched empty input (nullable records cannot delimit a "
                "sequence)",
                static_cast<unsigned long long>(Off), Where.c_str());
}

std::string formatVerifyFinding(const char *Severity,
                                const std::string &Component,
                                const std::string &Field, int32_t State,
                                int32_t Nt, const std::string &Detail) {
  std::string Anchor;
  if (State >= 0)
    Anchor += format(" state %d", State);
  if (Nt >= 0)
    Anchor += format(" nt %d", Nt);
  return format("verify %s [%s] %s%s: %s", Severity, Component.c_str(),
                Field.c_str(), Anchor.c_str(), Detail.c_str());
}

std::string ParseDiagnostic::message() const {
  if (K == Kind::Trailing)
    return formatTrailingAt(Off);
  if (K == Kind::Entry)
    return formatEntryRefusal(Where);
  if (K == Kind::EmptyRecord)
    return formatEmptyRecord(Off, Where);
  if (K == Kind::LimitExceeded)
    return Nt == NoNt ? std::string(OffsetLimitMessage)
                      : formatLexemeLimitAt(Off, Where);
  return formatParseErrorAt(Off, Expected, Where);
}

} // namespace flap
