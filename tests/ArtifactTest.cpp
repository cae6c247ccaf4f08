//===- tests/ArtifactTest.cpp - Compiled-grammar artifact suite ----------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// The artifact tier's contract (engine/Artifact.h), tested four ways:
///
///   1. Round-trip differential: for every benchmark grammar, a machine
///      loaded from its serialized blob — tables *borrowed* from the
///      mapped bytes, ε-programs rebuilt, action table rebound — must be
///      observationally identical to the machine that compiled it, in
///      all four engine modes: whole-buffer values, streaming (several
///      chunk sizes), sharded record runs, and sync-token recovery over
///      corrupted input (values AND structured diagnostics).
///
///   2. Corruption fuzz: truncations at every interesting length,
///      flipped header fields, wrong-endian magic, and payload bit
///      flips must all be rejected with a structured "artifact:" error
///      — never a crash, never tables reaching the hot loops. Flips
///      re-checksummed with rehashArtifact() model a *malicious* blob:
///      those must either be rejected (usually by the Verify audit, the
///      load-time trust boundary) or produce a machine the engine
///      survives (parse may fail; it may not crash) — the same
///      discipline VerifyTest's table-mutation harness enforces.
///
///   3. The on-disk cache: miss → compile+write, hit → checksum-only
///      reload, corrupt/stale file → silently deleted and recompiled.
///
///   4. Serving-tier hot reload: generations swap under concurrent
///      submitters with zero dropped or misparsed replies, in-flight
///      batches finish on their snapshot's tables, and the old
///      artifact's mapping is unmapped (weak_ptr expiry) once the last
///      borrower drains.
///
/// Plus the shard-layer context factory (ShardOptions::MakeCtx /
/// MergeCtx): per-shard contexts for csv/pgn/ppm merged in input order
/// must equal the sequential shared-context parse.
///
//===----------------------------------------------------------------------===//

#include "engine/Artifact.h"

#include "engine/Serve.h"
#include "engine/Shard.h"
#include "engine/Stream.h"
#include "engine/Verify.h"
#include "grammars/Grammars.h"
#include "lexer/CompiledLexer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

using namespace flap;

namespace {

//===--------------------------------------------------------------------===//
// Rig: one grammar compiled in-process and loaded back from its blob
//===--------------------------------------------------------------------===//

struct Rig {
  std::shared_ptr<GrammarDef> Def;
  FlapParser P;          ///< the compiled baseline
  LoadedArtifact A;      ///< the blob-loaded machine (borrowed tables)
  std::string Blob;      ///< the serialized bytes (fuzz substrate)
  bool Ready = false;

  explicit Rig(std::shared_ptr<GrammarDef> D, bool OnDisk = false)
      : Def(std::move(D)) {
    auto R = Def->HasRecord ? compileFlapRecords(Def) : compileFlap(Def);
    if (!R.ok()) {
      ADD_FAILURE() << Def->Name << ": compile failed: " << R.error();
      return;
    }
    P = R.take();
    CompiledLexer L(*Def->Re, P.Canon);
    Blob = serializeArtifact(P, &L);

    Result<LoadedArtifact> LA = Err("unset");
    if (OnDisk) {
      const std::string Path =
          testing::TempDir() + "/" + Def->Name + "-roundtrip.flapart";
      Status St = writeArtifact(P, Path, &L);
      if (!St.ok()) {
        ADD_FAILURE() << Def->Name << ": write failed: " << St.error();
        return;
      }
      LA = loadArtifact(Path, Def->L->Actions); // untrusted: full audit
    } else {
      LA = loadArtifact(MappedBlob::fromBuffer(Blob), Def->L->Actions);
    }
    if (!LA.ok()) {
      ADD_FAILURE() << Def->Name << ": load failed: " << LA.error();
      return;
    }
    A = LA.take();
    Ready = true;
  }
};

std::string renderValues(const std::vector<Value> &Vs) {
  std::string S;
  for (const Value &V : Vs)
    S += V.str() + "\n";
  return S;
}

std::string renderResult(const Result<Value> &R) {
  return R.ok() ? "ok: " + R.value().str() : "err: " + R.error();
}

/// A multi-record corpus with split-hostile internals (strings
/// containing close-delimiters, quoted CRLFs).
std::string recordCorpus(const std::string &Name, size_t Records) {
  std::string S;
  for (size_t I = 0; I < Records; ++I) {
    const std::string N = std::to_string(I);
    if (Name == "json")
      S += "{\"k" + N + "\": [" + N + ", {\"s\": \"a}b]c\"}], \"t\": true}\n";
    else if (Name == "sexp")
      S += "(rec" + N + " (a b) ((c) d))\n";
    else if (Name == "csv")
      S += "f" + N + ",\"x,y\r\nz\"," + N + "\r\n";
    else if (Name == "pgn")
      S += "[Tag \"v" + N + "\"]\n1. e4 e5 2. Nf3 Nc6 1-0\n";
    else if (Name == "ppm")
      S += "P3 2 1 255  1 2 3  9 8 7\n";
    else // arith
      S += "(1+2)*" + N + " + 3;\n";
  }
  return S;
}

/// Deterministically damages \p In for the recovery-mode differential.
std::string corrupt(std::string In) {
  if (In.size() < 16)
    return In;
  In[In.size() / 4] = '\x01';
  In[In.size() / 2] = '~';
  In.erase(3 * In.size() / 4, 1);
  return In;
}

void expectStreamEq(const std::string &Tag, const CompiledParser &Base,
                    const CompiledParser &Loaded, std::string_view Input,
                    size_t ChunkBytes) {
  StreamParser SB(Base), SL(Loaded);
  StreamStatus StB = StreamStatus::NeedData, StL = StreamStatus::NeedData;
  for (size_t Off = 0; Off < Input.size(); Off += ChunkBytes) {
    const std::string_view Chunk = Input.substr(Off, ChunkBytes);
    StB = SB.feed(Chunk);
    StL = SL.feed(Chunk);
    ASSERT_EQ(static_cast<int>(StB), static_cast<int>(StL))
        << Tag << " feed at " << Off;
    if (StB == StreamStatus::Error)
      break;
  }
  if (StB != StreamStatus::Error) {
    StB = SB.finish();
    StL = SL.finish();
    ASSERT_EQ(static_cast<int>(StB), static_cast<int>(StL)) << Tag;
  }
  EXPECT_EQ(renderResult(SB.take()), renderResult(SL.take())) << Tag;
}

void expectShardEq(const std::string &Tag, ShardParser &Base,
                   ShardParser &Loaded, std::string_view Corpus) {
  const std::vector<size_t> Splits = Base.planSplits(Corpus, 3);
  const ShardedValues B = Base.parseValuesAt(Corpus, Splits);
  const ShardedValues L = Loaded.parseValuesAt(Corpus, Splits);
  ASSERT_EQ(B.Ok, L.Ok) << Tag;
  EXPECT_EQ(B.NumRecords, L.NumRecords) << Tag;
  EXPECT_EQ(B.ErrMsg, L.ErrMsg) << Tag;
  ASSERT_EQ(renderValues(B.Values), renderValues(L.Values)) << Tag;
}

void expectRecoverEq(const std::string &Tag, const RecoveredParse &B,
                     const RecoveredParse &L) {
  EXPECT_EQ(B.Truncated, L.Truncated) << Tag;
  ASSERT_EQ(renderValues(B.Values), renderValues(L.Values)) << Tag;
  ASSERT_EQ(B.Errors.size(), L.Errors.size()) << Tag;
  for (size_t I = 0; I < B.Errors.size(); ++I)
    EXPECT_TRUE(B.Errors[I] == L.Errors[I])
        << Tag << " diagnostic " << I << ": " << B.Errors[I].message()
        << " vs " << L.Errors[I].message();
}

//===--------------------------------------------------------------------===//
// 1. Round-trip differential, all grammars × all four modes
//===--------------------------------------------------------------------===//

class ArtifactRoundTrip : public testing::TestWithParam<const char *> {};

TEST_P(ArtifactRoundTrip, AllModesMatchCompiledMachine) {
  const std::string Name = GetParam();
  Rig R(([&] {
          for (auto &D : allBenchmarkGrammars())
            if (D->Name == Name)
              return D;
          return std::shared_ptr<GrammarDef>();
        })(),
        /*OnDisk=*/true);
  ASSERT_TRUE(R.Ready);
  const CompiledParser &Base = R.P.M;
  const CompiledParser &Loaded = R.A.M;

  // Loaded scalars and entry points mirror the compiled machine.
  EXPECT_EQ(R.A.Info.GrammarName, Name);
  EXPECT_EQ(Loaded.Start, Base.Start);
  EXPECT_EQ(R.A.Entries, R.P.Entries);
  EXPECT_TRUE(R.A.Lexer != nullptr);

  const Workload W = genWorkload(Name, /*Seed=*/42, /*TargetBytes=*/1 << 14);
  const std::string Corpus = recordCorpus(Name, 40);

  // Mode 1: whole-buffer values. Context grammars get one fresh context
  // per parse so baseline and loaded runs cannot contaminate each other.
  for (const std::string &Input : {W.Input, Corpus}) {
    std::shared_ptr<void> CtxB =
        R.Def->NewCtx ? R.Def->NewCtx() : nullptr;
    std::shared_ptr<void> CtxL =
        R.Def->NewCtx ? R.Def->NewCtx() : nullptr;
    ParseScratch ScB, ScL;
    const Result<Value> VB = Base.parse(Input, ScB, CtxB.get());
    const Result<Value> VL = Loaded.parse(Input, ScL, CtxL.get());
    ASSERT_EQ(renderResult(VB), renderResult(VL)) << Name;
  }

  // Mode 2: streaming, byte-sized through page-sized chunks.
  for (size_t Chunk : {size_t(7), size_t(257), size_t(4096)})
    expectStreamEq(Name + "/stream/" + std::to_string(Chunk), Base, Loaded,
                   W.Input, Chunk);

  // Mode 3: sharded record runs off the artifact's record entry.
  const NtId RecB = recordEntry(R.P);
  const NtId RecL = R.A.recordEntry();
  ASSERT_EQ(RecB, RecL) << Name;
  if (RecL != NoNt) {
    ShardOptions SO;
    SO.Threads = 3;
    SO.MinShardBytes = 1; // force real sharding on small corpora
    ShardParser SPB(Base, RecB, SO), SPL(Loaded, RecL, SO);
    expectShardEq(Name + "/shard", SPB, SPL, Corpus);
  }

  // Mode 4: sync-token recovery over damaged input — identical values
  // and identical structured diagnostics.
  {
    const std::string Bad = corrupt(Corpus);
    ParseScratch ScB, ScL;
    std::shared_ptr<void> CtxB =
        R.Def->NewCtx ? R.Def->NewCtx() : nullptr;
    std::shared_ptr<void> CtxL =
        R.Def->NewCtx ? R.Def->NewCtx() : nullptr;
    ParseRequest Req;
    Req.MaxErrors = 8;
    RecoveredParse RB, RL;
    Req.User = CtxB.get();
    Base.run(Req, Bad, ScB, RB);
    Req.User = CtxL.get();
    Loaded.run(Req, Bad, ScL, RL);
    expectRecoverEq(Name + "/recover", RB, RL);
  }
}

INSTANTIATE_TEST_SUITE_P(AllGrammars, ArtifactRoundTrip,
                         testing::Values("json", "sexp", "arith", "pgn",
                                         "ppm", "csv"),
                         [](const testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

//===--------------------------------------------------------------------===//
// 2. Corruption fuzz: every damaged blob is rejected structurally
//===--------------------------------------------------------------------===//

TEST(ArtifactCorruption, TruncationsAreRejected) {
  Rig R(makeJsonGrammar());
  ASSERT_TRUE(R.Ready);
  // Every structurally interesting prefix: empty, mid-header, exactly
  // the header, mid-section-table, various payload cuts, all-but-one.
  std::vector<size_t> Cuts = {0,  1,  7,  sizeof(ArtifactHeader) - 1,
                              sizeof(ArtifactHeader),
                              sizeof(ArtifactHeader) + 3,
                              R.Blob.size() / 4, R.Blob.size() / 2,
                              R.Blob.size() - 1};
  for (size_t Cut : Cuts) {
    auto A = loadArtifact(MappedBlob::fromBuffer(R.Blob.substr(0, Cut)),
                          R.Def->L->Actions);
    ASSERT_FALSE(A.ok()) << "truncation at " << Cut << " loaded";
    EXPECT_EQ(A.error().rfind("artifact:", 0), 0u)
        << "unstructured error: " << A.error();
  }
}

TEST(ArtifactCorruption, HeaderFieldFlipsAreRejected) {
  Rig R(makeJsonGrammar());
  ASSERT_TRUE(R.Ready);

  auto expectRejected = [&](std::string Blob, const char *What,
                            bool Rehash) {
    if (Rehash)
      rehashArtifact(Blob); // checksum-consistent: the field check itself
                            // must fire, not the checksum
    auto A = loadArtifact(MappedBlob::fromBuffer(std::move(Blob)),
                          R.Def->L->Actions);
    ASSERT_FALSE(A.ok()) << What << " loaded";
    EXPECT_EQ(A.error().rfind("artifact:", 0), 0u) << What;
  };

  ArtifactHeader H;
  std::memcpy(&H, R.Blob.data(), sizeof(H));
  auto withHeader = [&](ArtifactHeader M) {
    std::string B = R.Blob;
    std::memcpy(&B[0], &M, sizeof(M));
    return B;
  };

  ArtifactHeader M = H;
  M.Magic[0] = 'F';
  expectRejected(withHeader(M), "bad magic", true);

  M = H; // a blob written on the other endianness
  M.EndianTag = __builtin_bswap32(M.EndianTag);
  expectRejected(withHeader(M), "wrong-endian tag", true);

  M = H;
  M.FormatVersion = ArtifactFormatVersion + 1;
  expectRejected(withHeader(M), "future version", true);

  // Version 2 stored both transition widths of a small machine; its
  // blobs are refused by version, before any section is read.
  M = H;
  M.FormatVersion = 2;
  {
    std::string B = withHeader(M);
    rehashArtifact(B);
    auto A = loadArtifact(MappedBlob::fromBuffer(std::move(B)),
                          R.Def->L->Actions);
    ASSERT_FALSE(A.ok()) << "version 2 loaded";
    EXPECT_NE(A.error().find("format version 2 unsupported"),
              std::string::npos)
        << A.error();
  }

  M = H;
  M.TraitsWord ^= 1;
  expectRejected(withHeader(M), "ABI traits mismatch", true);

  M = H;
  M.ActionHash ^= 1;
  expectRejected(withHeader(M), "action hash mismatch", true);

  M = H;
  M.NumSections = 10000;
  expectRejected(withHeader(M), "implausible section count", true);

  M = H;
  M.FileHash ^= 1; // and NOT rehashed: the checksum check itself
  expectRejected(withHeader(M), "bad checksum", false);
}

TEST(ArtifactCorruption, PayloadBitFlipsFailTheChecksum) {
  Rig R(makeJsonGrammar());
  ASSERT_TRUE(R.Ready);
  // A deterministic sweep of single-bit flips across the whole file
  // (header, section table, tables, string blobs).
  for (size_t I = 0; I < 200; ++I) {
    const size_t Byte = (I * 2654435761u) % R.Blob.size();
    std::string B = R.Blob;
    B[Byte] = static_cast<char>(B[Byte] ^ (1u << (I % 8)));
    auto A =
        loadArtifact(MappedBlob::fromBuffer(std::move(B)), R.Def->L->Actions);
    ASSERT_FALSE(A.ok()) << "bit flip at byte " << Byte << " loaded";
    EXPECT_EQ(A.error().rfind("artifact:", 0), 0u);
  }
}

TEST(ArtifactCorruption, MaliciousBlobsAreCaughtOrSurvived) {
  Rig R(makeJsonGrammar());
  ASSERT_TRUE(R.Ready);
  const Workload W = genWorkload("json", 7, 1 << 12);
  // A checksum-consistent adversary: flip bits, re-checksum. The Verify
  // audit (untrusted loads) is now the trust boundary: the blob either
  // fails to load with a structured error, or yields a machine whose
  // parses — values and events, which run the markers and ε-programs
  // recognition skips — may fail but must not crash or hang. The flips
  // are spread over every section the blob's section table lists, the
  // same number per section, so which tables get corrupted does not
  // depend on how large each one happens to be.
  ArtifactHeader H;
  std::memcpy(&H, R.Blob.data(), sizeof(H));
  ASSERT_GT(H.NumSections, 0u);
  ASSERT_LE(sizeof(H) + H.NumSections * sizeof(ArtifactSection),
            R.Blob.size());
  constexpr size_t FlipsPerSection = 4;
  size_t Rejected = 0, Loaded = 0, Flips = 0;
  for (uint32_t S = 0; S < H.NumSections; ++S) {
    ArtifactSection Sec;
    std::memcpy(&Sec, R.Blob.data() + sizeof(H) + S * sizeof(Sec),
                sizeof(Sec));
    const uint64_t Bytes = Sec.Count * Sec.ElemSize;
    ASSERT_LE(Sec.Offset + Bytes, R.Blob.size()) << "section " << Sec.Id;
    if (Bytes == 0)
      continue; // the unused table width, an empty pool
    for (size_t J = 0; J < FlipsPerSection; ++J) {
      const size_t Byte = static_cast<size_t>(
          Sec.Offset + (2 * J + 1) * Bytes / (2 * FlipsPerSection));
      std::string B = R.Blob;
      B[Byte] = static_cast<char>(B[Byte] ^ (1u << (Flips++ % 8)));
      rehashArtifact(B);
      auto A = loadArtifact(MappedBlob::fromBuffer(std::move(B)),
                            R.Def->L->Actions);
      if (!A.ok()) {
        EXPECT_EQ(A.error().rfind("artifact:", 0), 0u) << A.error();
        ++Rejected;
        continue;
      }
      ++Loaded;
      for (ParseMode Mode : {ParseMode::Values, ParseMode::Events}) {
        ParseRequest Req;
        Req.Mode = Mode;
        ParseScratch Scr;
        ParseOutcome O;
        (void)A->M.run(Req, W.Input, Scr, O); // must return, clean or not
      }
    }
  }
  // The sweep must actually exercise both the audit and the engine; a
  // fuzzer that only ever hits one side proves nothing about the other.
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(Loaded, 0u);
}

TEST(ArtifactCorruption, ActionTableMismatchIsRejected) {
  Rig R(makeJsonGrammar());
  ASSERT_TRUE(R.Ready);
  auto Csv = makeCsvGrammar();
  auto A = loadArtifact(MappedBlob::fromBuffer(R.Blob), Csv->L->Actions);
  ASSERT_FALSE(A.ok());
  EXPECT_NE(A.error().find("action table"), std::string::npos) << A.error();
}

//===--------------------------------------------------------------------===//
// 3. The on-disk cache
//===--------------------------------------------------------------------===//

TEST(ArtifactCache, MissHitCorruptRecompile) {
  const std::string Dir = testing::TempDir() + "/flap-artifact-cache-test";
  auto Def = makeSexpGrammar();
  CacheOptions CO;
  CO.Dir = Dir;

  // Re-runnable: drop whatever a previous run of this test cached.
  {
    Result<CachedLoad> Pre = loadArtifactCached(Def, CO);
    ASSERT_TRUE(Pre.ok()) << Pre.error();
    ::remove(Pre->Path.c_str());
  }

  Result<CachedLoad> C1 = loadArtifactCached(Def, CO);
  ASSERT_TRUE(C1.ok()) << C1.error();
  EXPECT_FALSE(C1->Hit);
  EXPECT_GT(C1->CompileMs, 0.0);

  Result<CachedLoad> C2 = loadArtifactCached(Def, CO);
  ASSERT_TRUE(C2.ok()) << C2.error();
  EXPECT_TRUE(C2->Hit);
  EXPECT_EQ(C2->Path, C1->Path);

  // Both loads parse.
  const Workload W = genWorkload("sexp", 3, 1 << 10);
  ParseScratch Scr;
  EXPECT_EQ(renderResult(C1->A.M.parse(W.Input, Scr)),
            renderResult(C2->A.M.parse(W.Input, Scr)));

  // Damage the cached file: the next load must not serve it — it
  // recompiles, rewrites, and the file is healthy again.
  {
    FILE *F = fopen(C1->Path.c_str(), "r+b");
    ASSERT_TRUE(F != nullptr);
    fseek(F, static_cast<long>(sizeof(ArtifactHeader)) + 40, SEEK_SET);
    fputc(0x5A, F);
    fclose(F);
  }
  Result<CachedLoad> C3 = loadArtifactCached(Def, CO);
  ASSERT_TRUE(C3.ok()) << C3.error();
  EXPECT_FALSE(C3->Hit) << "served a corrupt cache file";
  Result<CachedLoad> C4 = loadArtifactCached(Def, CO);
  ASSERT_TRUE(C4.ok()) << C4.error();
  EXPECT_TRUE(C4->Hit);
}

//===--------------------------------------------------------------------===//
// 4. Hot reload in the serving tier
//===--------------------------------------------------------------------===//

TEST(ArtifactServe, HotReloadUnderConcurrentSubmitters) {
  // Two generations of the SAME grammar: gen A borrowed from an
  // artifact mapping, gen B owned by an in-process compile. Submitters
  // hammer the service while the main thread flips between them; every
  // reply must be accepted and correct regardless of which generation
  // served it, and gen A's mapping must unmap once its last borrower
  // drains.
  auto Def = makeJsonGrammar();
  auto PR = compileFlap(Def);
  ASSERT_TRUE(PR.ok()) << PR.error();
  auto P = std::make_shared<FlapParser>(PR.take());

  const std::string Path = testing::TempDir() + "/hot-reload.flapart";
  ASSERT_TRUE(writeArtifact(*P, Path).ok());
  Result<LoadedArtifact> LA = loadArtifact(Path, Def->L->Actions);
  ASSERT_TRUE(LA.ok()) << LA.error();
  auto A = std::make_shared<LoadedArtifact>(LA.take());
  std::weak_ptr<MappedBlob> MapAlive = A->Blob;

  const Workload W = genWorkload("json", 11, 1 << 10);
  const std::string_view Input = W.Input;
  const std::string ExpectOne = renderResult(P->parse(Input));

  GrammarRegistry Reg;
  Reg.install("json", A->M, A->M.Start, A->keepAlive());

  {
    ServeOptions SO;
    SO.Threads = 3;
    ParseService Svc(Reg, "json", SO);

    std::atomic<bool> Stop{false};
    std::atomic<size_t> Replies{0}, Bad{0};
    std::vector<std::thread> Submitters;
    for (int T = 0; T < 4; ++T)
      Submitters.emplace_back([&] {
        while (!Stop.load(std::memory_order_relaxed)) {
          std::future<ServeReply> F =
              Svc.submit({Input, Input, Input});
          ServeReply Rep = F.get();
          if (!Rep.Accepted || Rep.Recovered.size() != 3) {
            ++Bad;
            continue;
          }
          for (const ParseOutcome &O : Rep.Recovered)
            if (!O.clean() || renderResult(O.Values.at(0)) != ExpectOne)
              ++Bad;
          ++Replies;
        }
      });

    // Flip generations while the submitters run: artifact ⇄ in-process.
    for (int Flip = 0; Flip < 20; ++Flip) {
      if (Flip & 1)
        Reg.install("json", A->M, A->M.Start, A->keepAlive());
      else
        Reg.install("json", P->M, P->M.Start, P);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // Drop the artifact generation for good: final install is owned.
    Reg.install("json", P->M, P->M.Start, P);
    A.reset(); // registry + in-flight replies are now the only owners

    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Stop = true;
    for (std::thread &T : Submitters)
      T.join();
    EXPECT_EQ(Bad.load(), 0u);
    EXPECT_GT(Replies.load(), 0u);
    Svc.shutdown();
  }

  // Every borrower has drained (service down, replies destroyed, the
  // artifact generation replaced): the mapping must be gone.
  EXPECT_TRUE(MapAlive.expired())
      << "old generation's mapping still alive after drain";
}

TEST(ArtifactServe, MissingGrammarIsRejectedNotCrashed) {
  GrammarRegistry Reg;
  ServeOptions SO;
  SO.Threads = 1;
  ParseService Svc(Reg, "nope", SO);
  ServeReply Rep = Svc.submit({std::string_view("x")}).get();
  EXPECT_FALSE(Rep.Accepted);
}

//===--------------------------------------------------------------------===//
// 5. Shard-layer per-shard context factory (csv/pgn/ppm)
//===--------------------------------------------------------------------===//

template <typename Ctx>
void shardCtxDifferential(const std::string &Name,
                          const std::function<void(Ctx &, const Ctx &)> &Fold,
                          const std::function<bool(const Ctx &,
                                                   const Ctx &)> &Same) {
  std::shared_ptr<GrammarDef> Def;
  for (auto &D : allBenchmarkGrammars())
    if (D->Name == Name)
      Def = D;
  ASSERT_TRUE(Def) << Name;
  auto R = compileFlapRecords(Def);
  ASSERT_TRUE(R.ok()) << R.error();
  FlapParser P = R.take();
  const NtId Rec = recordEntry(P);
  ASSERT_NE(Rec, NoNt) << Name;

  const std::string Corpus = recordCorpus(Name, 60);

  // Sequential truth: one shared context through a single-shard run.
  Ctx Seq;
  {
    ShardOptions SO;
    SO.Threads = 1;
    ShardParser SP(P.M, Rec, SO);
    ParseRequest Req;
    Req.User = &Seq;
    const std::vector<size_t> OneShard;
    const ShardOutcome V = SP.run(Req, Corpus, &OneShard);
    ASSERT_TRUE(V.Ok) << Name << ": " << V.ErrMsg;
  }

  // Parallel: fresh per-shard contexts, merged in input order.
  Ctx Par;
  {
    ShardOptions SO;
    SO.Threads = 3;
    SO.MinShardBytes = 1;
    SO.MakeCtx = [] { return std::shared_ptr<void>(new Ctx()); };
    SO.MergeCtx = [&Fold](void *Accum, void *ShardCtx) {
      Fold(*static_cast<Ctx *>(Accum), *static_cast<Ctx *>(ShardCtx));
    };
    ShardParser SP(P.M, Rec, SO);
    // Planned splits AND forced wrong boundaries (mispredicted shards
    // must contribute their *re-parse* context, not the speculative
    // one).
    for (const std::vector<size_t> &Splits :
         {SP.planSplits(Corpus, 3),
          std::vector<size_t>{0, Corpus.size() / 3, Corpus.size() / 2}}) {
      Par = Ctx();
      ParseRequest Req;
      Req.User = &Par;
      const ShardOutcome V = SP.run(Req, Corpus, &Splits);
      ASSERT_TRUE(V.Ok) << Name << ": " << V.ErrMsg;
      ASSERT_GT(V.Stats.Shards, 1u) << Name;
      EXPECT_TRUE(Same(Seq, Par)) << Name;
    }
  }
}

TEST(ShardCtxFactory, PgnTalliesMerge) {
  shardCtxDifferential<PgnCtx>(
      "pgn",
      [](PgnCtx &A, const PgnCtx &S) {
        A.White += S.White;
        A.Black += S.Black;
        A.Draw += S.Draw;
        A.Unknown += S.Unknown;
      },
      [](const PgnCtx &A, const PgnCtx &B) {
        return A.White == B.White && A.Black == B.Black &&
               A.Draw == B.Draw && A.Unknown == B.Unknown;
      });
}

TEST(ShardCtxFactory, PpmStatsMerge) {
  // ppm's record action OVERWRITES the context per image (grammars/
  // Ppm.cpp) — sequentially the context ends as the last record's
  // stats, so the fold is last-nonempty-shard-wins.
  shardCtxDifferential<PpmCtx>(
      "ppm",
      [](PpmCtx &A, const PpmCtx &S) {
        if (S.Samples != 0 || S.MaxSample != 0)
          A = S;
      },
      [](const PpmCtx &A, const PpmCtx &B) {
        return A.Samples == B.Samples && A.MaxSample == B.MaxSample;
      });
}

TEST(ShardCtxFactory, CsvConsistencyMerges) {
  shardCtxDifferential<CsvCtx>(
      "csv",
      [](CsvCtx &A, const CsvCtx &S) {
        if (S.FirstCols != -1) {
          if (A.FirstCols == -1)
            A.FirstCols = S.FirstCols;
          else if (A.FirstCols != S.FirstCols)
            A.Consistent = false;
        }
        A.Consistent = A.Consistent && S.Consistent;
      },
      [](const CsvCtx &A, const CsvCtx &B) {
        return A.FirstCols == B.FirstCols && A.Consistent == B.Consistent;
      });
}

//===--------------------------------------------------------------------===//
// Loaded-blob audit parity: the trust boundary sees what the pipeline saw
//===--------------------------------------------------------------------===//

TEST(ArtifactVerify, LoadedTablesPassTheFullAudit) {
  for (auto &Def : allBenchmarkGrammars()) {
    Rig R(Def);
    ASSERT_TRUE(R.Ready) << Def->Name;
    VerifyReport VR = verifyCompiledParser(R.A.M);
    EXPECT_TRUE(VR.ok()) << Def->Name << ": " << VR.summary();
    ASSERT_TRUE(R.A.Lexer != nullptr) << Def->Name;
    VerifyReport LR = verifyCompiledLexer(*R.A.Lexer);
    EXPECT_TRUE(LR.ok()) << Def->Name << ": " << LR.summary();
  }
}

} // namespace
