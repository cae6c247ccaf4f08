//===- engine/Artifact.cpp - Relocatable compiled-grammar blobs ----------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
//
// Implementation notes.
//
// The writer lays the file out in one buffer: header, section table,
// then sections appended in registration order with 64-byte alignment
// padding, section-table offsets patched once the layout is final, and
// the whole-file hash patched last (computed with its own field
// zeroed). The loader never trusts an offset before bounds-checking it
// against the mapped size — every multiplication in the bounds math is
// checked for overflow, so a forged Count cannot wrap past the file
// end. Only after the structural pass do table pointers get handed to
// Table<T>::borrow(), and only after the full Verify audit (untrusted
// loads) does the machine reach a caller.
//
// Strings and other non-POD cold state ride in "blob" sections with a
// bounds-checked cursor format (u32 length prefixes); they are copied
// out at load, which keeps std::string/vector ownership semantics out
// of the zero-copy path entirely.
//
//===----------------------------------------------------------------------===//

#include "engine/Artifact.h"

#include "engine/Verify.h"

#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cctype>
#include <cstring>
#include <sys/mman.h>
#include <sys/stat.h>
#include <fcntl.h>
#include <unistd.h>

using namespace flap;

//===--------------------------------------------------------------------===//
// Hashes
//===--------------------------------------------------------------------===//

uint64_t flap::artifactHash(const void *Data, size_t N, uint64_t Seed) {
  // FNV-1a-64 over eight interleaved lanes of 8-byte words, folded at
  // the end (the tail word- then byte-at-a-time). The serial FNV
  // multiply has ~3 cycles of latency, so one chain tops out near
  // 6 GB/s; eight independent chains keep the multiplier port busy and
  // run ~4x faster. The trusted-reload path hashes the whole file, so
  // this is what keeps checksum-only loads in the microsecond budget.
  //
  // Note the result is NOT split-invariant: hash(a++b) differs from
  // hash(b, seed=hash(a)) — every chained producer/consumer pair must
  // split at the same boundary (rehashArtifact and validateBlob both
  // split after ArtifactHeader).
  constexpr uint64_t Prime = 0x100000001b3ull;
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  if (N < 64) {
    // Small keys (header fields, action-table shape words) skip the
    // lane set-up/fold entirely — hashActionTable hashes dozens of
    // 1-8 byte fields per load, where 17 extra multiplies per call
    // cost more than the data itself.
    uint64_t H = Seed;
    size_t I = 0;
    for (; I + 8 <= N; I += 8) {
      uint64_t W;
      memcpy(&W, P + I, 8);
      H = (H ^ W) * Prime;
    }
    for (; I < N; ++I)
      H = (H ^ P[I]) * Prime;
    return H;
  }
  uint64_t L[8];
  for (int J = 0; J < 8; ++J)
    L[J] = Seed ^ (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(2 * J + 1));
  size_t I = 0;
  for (; I + 64 <= N; I += 64)
    for (int J = 0; J < 8; ++J) {
      uint64_t W;
      memcpy(&W, P + I + 8 * J, 8);
      L[J] = (L[J] ^ W) * Prime;
    }
  uint64_t H = Seed;
  for (int J = 0; J < 8; ++J)
    H = (H ^ L[J]) * Prime;
  for (; I + 8 <= N; I += 8) {
    uint64_t W;
    memcpy(&W, P + I, 8);
    H = (H ^ W) * Prime;
  }
  for (; I < N; ++I)
    H = (H ^ P[I]) * Prime;
  return H;
}

namespace {
uint64_t hashBytes(uint64_t H, const void *Data, size_t N) {
  return artifactHash(Data, N, H);
}
template <typename T> uint64_t hashPod(uint64_t H, const T &V) {
  static_assert(std::is_trivially_copyable<T>::value, "hashPod: POD only");
  return artifactHash(&V, sizeof(T), H);
}
} // namespace

uint64_t flap::hashActionTable(const ActionTable &A) {
  uint64_t H = ArtifactHashSeed;
  H = hashPod(H, static_cast<uint64_t>(A.size()));
  for (size_t I = 0; I < A.size(); ++I) {
    const Action &Act = A.get(static_cast<ActionId>(I));
    H = hashPod(H, static_cast<int32_t>(Act.Arity));
    H = hashPod(H, static_cast<uint8_t>(Act.Kind));
    H = hashPod(H, static_cast<uint8_t>(Act.ReadsInput));
    H = hashPod(H, Act.Sel);
    H = hashPod(H, Act.Sel2);
    H = hashPod(H, Act.Imm);
    H = hashPod(H, static_cast<uint32_t>(Act.Name.size()));
    H = hashBytes(H, Act.Name.data(), Act.Name.size());
  }
  return H;
}

uint64_t flap::artifactTraitsWord() {
  // Every POD layout the blob borrows or embeds. A compiler/ABI that
  // sizes any of them differently produces a different word and the
  // load is rejected instead of misreading tables.
  const uint32_t Sizes[] = {
      sizeof(Sym),          sizeof(MicroOp),
      sizeof(CompiledParser::Cont), sizeof(SkipSet),
      sizeof(CompiledParser::NtInfo), sizeof(dispatchtier::Bounds),
      sizeof(TokenId),      sizeof(ActionId),
      sizeof(uint64_t),     sizeof(int)};
  return artifactHash(Sizes, sizeof(Sizes), ArtifactHashSeed);
}

void flap::rehashArtifact(std::string &Blob) {
  if (Blob.size() < sizeof(ArtifactHeader))
    return;
  ArtifactHeader H;
  memcpy(&H, Blob.data(), sizeof(H));
  H.FileHash = 0;
  memcpy(&Blob[0], &H, sizeof(H));
  // Header and payload hashed as two chained calls, the same split
  // validateBlob uses — the lane fold makes the hash split-sensitive.
  uint64_t Hash = artifactHash(Blob.data(), sizeof(H), ArtifactHashSeed);
  Hash = artifactHash(Blob.data() + sizeof(H), Blob.size() - sizeof(H), Hash);
  H.FileHash = Hash;
  memcpy(&Blob[0], &H, sizeof(H));
}

//===--------------------------------------------------------------------===//
// Section ids and POD scalars
//===--------------------------------------------------------------------===//

namespace {

/// A machine's scan tables (ScanTables, engine/DispatchTier.h) take
/// NumScanSections consecutive ids from a base: the tier bounds, then
/// Trans16, Trans8 (one of the two empty: a machine stores only the
/// width its state count selects) and Skip. The parser's set and the
/// lexer's set go through the same writer and borrower
/// (addScanTables/borrowScanTables).
constexpr uint32_t NumScanSections = 4;

enum SectionId : uint32_t {
  SecParserScalars = 1,
  SecParserScan,
  SecAcceptCont = SecParserScan + NumScanSections,
  SecConts,
  SecTailPool,
  SecAccMeta,
  SecAccNtMeta,
  SecOpPool,
  SecOpActs,
  SecPackedPool,
  SecNtPool,
  SecNts,
  SecNtNames,
  SecNtExpected,
  SecEpsChains,
  SecSyncSpecs,
  SecEntries,
  SecGrammarName,
  SecLexScalars,
  SecLexScan,
  SecLexAccept = SecLexScan + NumScanSections,
  SecLexToks,
};

struct ParserScalars {
  int32_t SkipState;
  uint32_t Start;
  uint8_t HasLexer;
  uint8_t Pad[7];
};
static_assert(std::is_trivially_copyable<ParserScalars>::value, "");

struct LexScalars {
  int32_t Start;
};
static_assert(std::is_trivially_copyable<LexScalars>::value, "");

constexpr char ArtifactMagic[8] = {'f', 'l', 'a', 'p', 'a', 'r', 't', 0};
constexpr size_t SectionAlign = 64;

//===--------------------------------------------------------------------===//
// Blob-section cursor (bounds-checked structural reads)
//===--------------------------------------------------------------------===//

void putU32(std::string &B, uint32_t V) {
  B.append(reinterpret_cast<const char *>(&V), 4);
}
void putStr(std::string &B, const std::string &S) {
  putU32(B, static_cast<uint32_t>(S.size()));
  B.append(S);
}
template <typename T> void putPod(std::string &B, const T &V) {
  static_assert(std::is_trivially_copyable<T>::value, "putPod: POD only");
  B.append(reinterpret_cast<const char *>(&V), sizeof(T));
}

struct Cursor {
  const uint8_t *P;
  size_t N;
  size_t I = 0;
  bool Bad = false;

  bool readU32(uint32_t &V) {
    if (Bad || N - I < 4) {
      Bad = true;
      return false;
    }
    memcpy(&V, P + I, 4);
    I += 4;
    return true;
  }
  bool readStr(std::string &S, size_t MaxLen = 1u << 24) {
    uint32_t L;
    if (!readU32(L) || L > MaxLen || N - I < L) {
      Bad = true;
      return false;
    }
    S.assign(reinterpret_cast<const char *>(P + I), L);
    I += L;
    return true;
  }
  template <typename T> bool readPod(T &V) {
    if (Bad || N - I < sizeof(T)) {
      Bad = true;
      return false;
    }
    memcpy(&V, P + I, sizeof(T));
    I += sizeof(T);
    return true;
  }
  bool done() const { return !Bad && I == N; }
};

} // namespace

//===--------------------------------------------------------------------===//
// MappedBlob
//===--------------------------------------------------------------------===//

Result<std::shared_ptr<MappedBlob>> MappedBlob::map(const std::string &P) {
  int Fd = ::open(P.c_str(), O_RDONLY);
  if (Fd < 0)
    return Err("artifact: cannot open '" + P + "': " + strerror(errno));
  struct stat St;
  if (fstat(Fd, &St) != 0) {
    int E = errno;
    ::close(Fd);
    return Err("artifact: cannot stat '" + P + "': " + strerror(E));
  }
  if (St.st_size == 0) {
    ::close(Fd);
    return Err("artifact: '" + P + "' is empty");
  }
  void *Base = ::mmap(nullptr, static_cast<size_t>(St.st_size), PROT_READ,
                      MAP_PRIVATE, Fd, 0);
  ::close(Fd); // the mapping holds its own reference
  if (Base == MAP_FAILED)
    return Err("artifact: cannot mmap '" + P + "': " + strerror(errno));
  auto B = std::shared_ptr<MappedBlob>(new MappedBlob());
  B->Data = static_cast<const uint8_t *>(Base);
  B->Size = static_cast<size_t>(St.st_size);
  B->MapBase = Base;
  B->MapLen = B->Size;
  B->Path = P;
  return B;
}

std::shared_ptr<MappedBlob> MappedBlob::fromBuffer(std::string Bytes) {
  auto B = std::shared_ptr<MappedBlob>(new MappedBlob());
  B->Buffer = std::move(Bytes);
  B->Data = reinterpret_cast<const uint8_t *>(B->Buffer.data());
  B->Size = B->Buffer.size();
  B->Path = "<buffer>";
  return B;
}

MappedBlob::~MappedBlob() {
  if (MapBase)
    ::munmap(MapBase, MapLen);
}

//===--------------------------------------------------------------------===//
// ArtifactAccess: the CompiledLexer seam (friend, lexer/CompiledLexer.h)
//===--------------------------------------------------------------------===//

namespace flap {
struct ArtifactAccess {
  // Lex is CompiledLexer (loading) or const CompiledLexer (writing).
  template <typename Lex> static auto &scan(Lex &L) { return L.Scan; }
  template <typename Lex> static auto &accept(Lex &L) { return L.Accept; }
  template <typename Lex> static auto &toks(Lex &L) { return L.Toks; }
  static LexScalars scalars(const CompiledLexer &L) { return {L.Start}; }
  static std::shared_ptr<CompiledLexer> make(const LexScalars &S) {
    auto L = std::shared_ptr<CompiledLexer>(new CompiledLexer());
    L->Start = S.Start;
    return L;
  }
};
} // namespace flap

//===--------------------------------------------------------------------===//
// Writer
//===--------------------------------------------------------------------===//

namespace {

class Writer {
public:
  void addBytes(uint32_t Id, std::string Bytes) {
    Pending.push_back({Id, 1, std::move(Bytes), 0});
  }
  template <typename T> void addTable(uint32_t Id, const Table<T> &Tab) {
    std::string B(reinterpret_cast<const char *>(Tab.data()),
                  Tab.size() * sizeof(T));
    Pending.push_back({Id, static_cast<uint32_t>(sizeof(T)), std::move(B),
                       Tab.size()});
  }
  template <typename T> void addPod(uint32_t Id, const T &V) {
    std::string B(reinterpret_cast<const char *>(&V), sizeof(T));
    Pending.push_back({Id, static_cast<uint32_t>(sizeof(T)), std::move(B), 1});
  }

  std::string finish(uint64_t ActionHash) {
    ArtifactHeader H;
    memset(&H, 0, sizeof(H));
    memcpy(H.Magic, ArtifactMagic, 8);
    H.FormatVersion = ArtifactFormatVersion;
    H.EndianTag = ArtifactEndianTag;
    H.TraitsWord = artifactTraitsWord();
    H.ActionHash = ActionHash;
    H.NumSections = static_cast<uint32_t>(Pending.size());

    std::string Out;
    Out.append(reinterpret_cast<const char *>(&H), sizeof(H));
    const size_t TableOff = Out.size();
    Out.append(Pending.size() * sizeof(ArtifactSection), '\0');

    std::vector<ArtifactSection> Secs;
    for (PendingSec &S : Pending) {
      // 64-byte alignment for every section start: borrowed tables keep
      // the alignment the SIMD kernels and cache lines want.
      Out.append((SectionAlign - Out.size() % SectionAlign) % SectionAlign,
                 '\0');
      ArtifactSection E;
      E.Id = S.Id;
      E.ElemSize = S.ElemSize;
      E.Offset = Out.size();
      E.Count = S.ElemSize == 1 ? S.Bytes.size() : S.Count;
      Secs.push_back(E);
      Out.append(S.Bytes);
    }
    memcpy(&Out[TableOff], Secs.data(),
           Secs.size() * sizeof(ArtifactSection));
    rehashArtifact(Out);
    return Out;
  }

private:
  struct PendingSec {
    uint32_t Id;
    uint32_t ElemSize;
    std::string Bytes;
    size_t Count;
  };
  std::vector<PendingSec> Pending;
};

std::string packStrings(const std::vector<std::string> &Strs) {
  std::string B;
  putU32(B, static_cast<uint32_t>(Strs.size()));
  for (const std::string &S : Strs)
    putStr(B, S);
  return B;
}

std::string packEpsChains(const std::vector<std::vector<ActionId>> &Chains) {
  std::string B;
  putU32(B, static_cast<uint32_t>(Chains.size()));
  for (const std::vector<ActionId> &C : Chains) {
    putU32(B, static_cast<uint32_t>(C.size()));
    for (ActionId A : C)
      putPod(B, A);
  }
  return B;
}

std::string packSyncSpecs(const std::vector<CompiledParser::SyncSpec> &SS) {
  std::string B;
  putU32(B, static_cast<uint32_t>(SS.size()));
  for (const CompiledParser::SyncSpec &S : SS) {
    putPod(B, static_cast<uint8_t>(S.HasSync));
    putPod(B, S.Sync);
    putPod(B, S.NotSync);
    putPod(B, S.SeqOnly);
    putU32(B, static_cast<uint32_t>(S.Seqs.size()));
    for (const std::string &Q : S.Seqs)
      putStr(B, Q);
  }
  return B;
}

std::string packEntries(const std::map<std::string, NtId> &E) {
  std::string B;
  putU32(B, static_cast<uint32_t>(E.size()));
  for (const auto &[Name, Nt] : E) {
    putStr(B, Name);
    putU32(B, Nt);
  }
  return B;
}

/// Writes one machine's scan tables to the NumScanSections sections
/// from \p Base.
void addScanTables(Writer &W, uint32_t Base, const ScanTables &T) {
  W.addPod(Base, T.Tiers);
  W.addTable(Base + 1, T.Trans16);
  W.addTable(Base + 2, T.Trans8);
  W.addTable(Base + 3, T.Skip);
}

} // namespace

std::string flap::serializeArtifact(const FlapParser &P,
                                    const CompiledLexer *L) {
  const CompiledParser &M = P.M;
  Writer W;

  ParserScalars S;
  memset(&S, 0, sizeof(S));
  S.SkipState = M.SkipState;
  S.Start = M.Start;
  S.HasLexer = L != nullptr;
  W.addPod(SecParserScalars, S);

  addScanTables(W, SecParserScan, M.Scan);
  W.addTable(SecAcceptCont, M.AcceptCont);
  W.addTable(SecConts, M.Conts);
  W.addTable(SecTailPool, M.TailPool);
  W.addTable(SecAccMeta, M.AccMeta);
  W.addTable(SecAccNtMeta, M.AccNtMeta);
  W.addTable(SecOpPool, M.OpPool);
  W.addTable(SecOpActs, M.OpActs);
  W.addTable(SecPackedPool, M.PackedPool);
  W.addTable(SecNtPool, M.NtPool);
  W.addTable(SecNts, M.Nts);

  W.addBytes(SecNtNames, packStrings(M.NtNames));
  W.addBytes(SecNtExpected, packStrings(M.NtExpected));
  W.addBytes(SecEpsChains, packEpsChains(M.EpsChains));
  W.addBytes(SecSyncSpecs, packSyncSpecs(M.SyncSpecs));
  W.addBytes(SecEntries, packEntries(P.Entries));
  W.addBytes(SecGrammarName, P.Def ? P.Def->Name : std::string());

  if (L) {
    W.addPod(SecLexScalars, ArtifactAccess::scalars(*L));
    addScanTables(W, SecLexScan, ArtifactAccess::scan(*L));
    W.addTable(SecLexAccept, ArtifactAccess::accept(*L));
    W.addTable(SecLexToks, ArtifactAccess::toks(*L));
  }

  return W.finish(hashActionTable(*M.Actions));
}

Status flap::writeArtifact(const FlapParser &P, const std::string &Path,
                           const CompiledLexer *L) {
  if (L && !L->status().ok())
    return Err("artifact: " + L->status().error());
  const std::string Blob = serializeArtifact(P, L);
  const std::string Tmp =
      Path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  FILE *F = fopen(Tmp.c_str(), "wb");
  if (!F)
    return Err("artifact: cannot create '" + Tmp + "': " + strerror(errno));
  const bool Wrote = fwrite(Blob.data(), 1, Blob.size(), F) == Blob.size();
  const bool Closed = fclose(F) == 0;
  if (!Wrote || !Closed) {
    ::unlink(Tmp.c_str());
    return Err("artifact: short write to '" + Tmp + "'");
  }
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    int E = errno;
    ::unlink(Tmp.c_str());
    return Err("artifact: cannot rename into '" + Path +
               "': " + strerror(E));
  }
  return Status::success();
}

//===--------------------------------------------------------------------===//
// Loader
//===--------------------------------------------------------------------===//

namespace {

/// The structurally validated view of a blob: header checked, checksum
/// verified, every section bounds-checked and de-duplicated.
struct BlobView {
  /// Section ids are small consecutive enumerators; a flat array plus a
  /// presence bitmask indexes them with zero allocations (a std::map
  /// here cost more than every table borrow combined on the trusted
  /// reload path).
  static constexpr uint32_t MaxSectionId = 64;

  const uint8_t *Data;
  size_t Size;
  ArtifactHeader H;
  ArtifactSection Secs[MaxSectionId];
  uint64_t Present = 0;
  uint32_t NumSecs = 0;

  const ArtifactSection *find(uint32_t Id) const {
    if (Id >= MaxSectionId || !(Present & (1ull << Id)))
      return nullptr;
    return &Secs[Id];
  }
};

/// \p Memo, when non-null, is the blob object whose verified-checksum
/// memo may satisfy (and is warmed by) the whole-file hash check.
Result<BlobView> validateBlob(const uint8_t *Data, size_t Size,
                              const MappedBlob *Memo = nullptr) {
  BlobView V;
  V.Data = Data;
  V.Size = Size;
  if (Size < sizeof(ArtifactHeader))
    return Err("artifact: truncated (smaller than the header)");
  memcpy(&V.H, Data, sizeof(ArtifactHeader));
  const ArtifactHeader &H = V.H;
  if (memcmp(H.Magic, ArtifactMagic, 8) != 0)
    return Err("artifact: bad magic (not a flap artifact)");
  if (H.EndianTag != ArtifactEndianTag) {
    uint32_t Swapped = __builtin_bswap32(H.EndianTag);
    if (Swapped == ArtifactEndianTag)
      return Err("artifact: wrong endianness (blob written on a "
                 "byte-swapped machine)");
    return Err("artifact: corrupt endian tag");
  }
  if (H.FormatVersion != ArtifactFormatVersion)
    return Err("artifact: format version " +
               std::to_string(H.FormatVersion) + " unsupported (expected " +
               std::to_string(ArtifactFormatVersion) + ")");
  if (H.TraitsWord != artifactTraitsWord())
    return Err("artifact: ABI traits mismatch (blob written with "
               "different table layouts)");

  // Whole-file checksum, FileHash field zeroed. Runs before the section
  // table is interpreted, so a bit flip anywhere — header fields,
  // section offsets, payload bytes — is one structured error here.
  // Re-loads of an already-verified immutable mapping skip the
  // recompute via the blob's memo (MappedBlob::verifiedHash).
  if (!Memo || Memo->verifiedHash() == 0 ||
      Memo->verifiedHash() != H.FileHash) {
    ArtifactHeader Z = H;
    Z.FileHash = 0;
    uint64_t Hash = artifactHash(&Z, sizeof(Z), ArtifactHashSeed);
    Hash = artifactHash(Data + sizeof(Z), Size - sizeof(Z), Hash);
    if (Hash != H.FileHash)
      return Err("artifact: checksum mismatch (file corrupt or torn)");
    if (Memo)
      Memo->noteVerified(Hash);
  }

  if (H.NumSections == 0 || H.NumSections > 256)
    return Err("artifact: implausible section count " +
               std::to_string(H.NumSections));
  const size_t TableBytes =
      static_cast<size_t>(H.NumSections) * sizeof(ArtifactSection);
  if (Size - sizeof(ArtifactHeader) < TableBytes)
    return Err("artifact: truncated section table");

  for (uint32_t I = 0; I < H.NumSections; ++I) {
    ArtifactSection S;
    memcpy(&S, Data + sizeof(ArtifactHeader) + I * sizeof(ArtifactSection),
           sizeof(S));
    if (S.ElemSize == 0 || S.ElemSize > (1u << 16))
      return Err("artifact: section " + std::to_string(S.Id) +
                 " has implausible element size");
    if (S.Count > Size || S.Offset > Size ||
        S.Count * S.ElemSize > Size - S.Offset)
      return Err("artifact: section " + std::to_string(S.Id) +
                 " extends past end of file");
    if (S.Offset % SectionAlign != 0)
      return Err("artifact: section " + std::to_string(S.Id) +
                 " is misaligned");
    if (S.Id >= BlobView::MaxSectionId)
      return Err("artifact: implausible section id " + std::to_string(S.Id));
    if (V.Present & (1ull << S.Id))
      return Err("artifact: duplicate section " + std::to_string(S.Id));
    V.Present |= 1ull << S.Id;
    V.Secs[S.Id] = S;
    ++V.NumSecs;
  }
  return V;
}

/// Borrow helper: resolves section \p Id into \p T elements or fails.
template <typename T>
Status borrowTable(const BlobView &V, uint32_t Id, Table<T> &Out) {
  const ArtifactSection *S = V.find(Id);
  if (!S)
    return Err("artifact: missing section " + std::to_string(Id));
  if (S->ElemSize != sizeof(T))
    return Err("artifact: section " + std::to_string(Id) +
               " element size " + std::to_string(S->ElemSize) +
               " != expected " + std::to_string(sizeof(T)));
  Out.borrow(reinterpret_cast<const T *>(V.Data + S->Offset),
             static_cast<size_t>(S->Count));
  return Status::success();
}

Status blobSection(const BlobView &V, uint32_t Id, Cursor &C) {
  const ArtifactSection *S = V.find(Id);
  if (!S)
    return Err("artifact: missing section " + std::to_string(Id));
  C = Cursor{V.Data + S->Offset, static_cast<size_t>(S->Count), 0, false};
  return Status::success();
}

template <typename T>
Status readPodSection(const BlobView &V, uint32_t Id, T &Out) {
  const ArtifactSection *S = V.find(Id);
  if (!S)
    return Err("artifact: missing section " + std::to_string(Id));
  if (S->ElemSize != sizeof(T) || S->Count != 1)
    return Err("artifact: section " + std::to_string(Id) +
               " has the wrong shape");
  memcpy(&Out, V.Data + S->Offset, sizeof(T));
  return Status::success();
}

Status unpackStrings(const BlobView &V, uint32_t Id,
                     std::vector<std::string> &Out) {
  Cursor C{nullptr, 0, 0, false};
  if (Status S = blobSection(V, Id, C); !S.ok())
    return S;
  uint32_t N;
  if (!C.readU32(N) || N > (1u << 20))
    return Err("artifact: corrupt string section " + std::to_string(Id));
  Out.clear();
  Out.reserve(N);
  for (uint32_t I = 0; I < N; ++I) {
    std::string S;
    if (!C.readStr(S))
      return Err("artifact: corrupt string section " + std::to_string(Id));
    Out.push_back(std::move(S));
  }
  return Status::success();
}

/// Borrows one machine's scan tables back from the NumScanSections
/// sections written by addScanTables from \p Base.
Status borrowScanTables(const BlobView &V, uint32_t Base, ScanTables &T) {
  if (Status St = readPodSection(V, Base, T.Tiers); !St.ok())
    return St;
  if (Status St = borrowTable(V, Base + 1, T.Trans16); !St.ok())
    return St;
  if (Status St = borrowTable(V, Base + 2, T.Trans8); !St.ok())
    return St;
  return borrowTable(V, Base + 3, T.Skip);
}

} // namespace

Result<ArtifactInfo> flap::inspectArtifact(const std::string &Path) {
  Result<std::shared_ptr<MappedBlob>> B = MappedBlob::map(Path);
  if (!B.ok())
    return Err(B.error());
  Result<BlobView> V = validateBlob((*B)->data(), (*B)->size(), B->get());
  if (!V.ok())
    return Err(V.error());
  ArtifactInfo Info;
  Info.FormatVersion = V->H.FormatVersion;
  Info.TraitsWord = V->H.TraitsWord;
  Info.ActionHash = V->H.ActionHash;
  Info.FileHash = V->H.FileHash;
  Info.FileBytes = (*B)->size();
  Info.NumSections = V->NumSecs;
  ParserScalars S;
  if (Status St = readPodSection(*V, SecParserScalars, S); !St.ok())
    return Err(St.error());
  Info.HasLexer = S.HasLexer != 0;
  Cursor C{nullptr, 0, 0, false};
  if (Status St = blobSection(*V, SecGrammarName, C); !St.ok())
    return Err(St.error());
  Info.GrammarName.assign(reinterpret_cast<const char *>(C.P), C.N);
  return Info;
}

Result<LoadedArtifact> flap::loadArtifact(std::shared_ptr<MappedBlob> Blob,
                                          const ActionTable &Actions,
                                          const LoadOptions &O) {
  Result<BlobView> VR = validateBlob(Blob->data(), Blob->size(), Blob.get());
  if (!VR.ok())
    return Err(VR.error());
  const BlobView &V = *VR;

  if (V.H.ActionHash != hashActionTable(Actions))
    return Err("artifact: action table mismatch — the blob was compiled "
               "against a different grammar registration");

  LoadedArtifact A;
  A.Blob = std::move(Blob);
  A.Info.FormatVersion = V.H.FormatVersion;
  A.Info.TraitsWord = V.H.TraitsWord;
  A.Info.ActionHash = V.H.ActionHash;
  A.Info.FileHash = V.H.FileHash;
  A.Info.FileBytes = A.Blob->size();
  A.Info.NumSections = V.NumSecs;

  CompiledParser &M = A.M;
  ParserScalars S;
  if (Status St = readPodSection(V, SecParserScalars, S); !St.ok())
    return Err(St.error());
  M.SkipState = S.SkipState;
  M.Start = S.Start;
  A.Info.HasLexer = S.HasLexer != 0;

  // The zero-copy core: every hot table becomes a view into the mapping.
  if (Status St = borrowScanTables(V, SecParserScan, M.Scan); !St.ok())
    return Err(St.error());
  if (Status St = borrowTable(V, SecAcceptCont, M.AcceptCont); !St.ok())
    return Err(St.error());
  if (Status St = borrowTable(V, SecConts, M.Conts); !St.ok())
    return Err(St.error());
  if (Status St = borrowTable(V, SecTailPool, M.TailPool); !St.ok())
    return Err(St.error());
  if (Status St = borrowTable(V, SecAccMeta, M.AccMeta); !St.ok())
    return Err(St.error());
  if (Status St = borrowTable(V, SecAccNtMeta, M.AccNtMeta); !St.ok())
    return Err(St.error());
  if (Status St = borrowTable(V, SecOpPool, M.OpPool); !St.ok())
    return Err(St.error());
  if (Status St = borrowTable(V, SecOpActs, M.OpActs); !St.ok())
    return Err(St.error());
  if (Status St = borrowTable(V, SecPackedPool, M.PackedPool); !St.ok())
    return Err(St.error());
  if (Status St = borrowTable(V, SecNtPool, M.NtPool); !St.ok())
    return Err(St.error());
  if (Status St = borrowTable(V, SecNts, M.Nts); !St.ok())
    return Err(St.error());

  // Cold, structural state: copied out (small, off the hot path).
  if (Status St = unpackStrings(V, SecNtNames, M.NtNames); !St.ok())
    return Err(St.error());
  if (Status St = unpackStrings(V, SecNtExpected, M.NtExpected); !St.ok())
    return Err(St.error());

  {
    Cursor C{nullptr, 0, 0, false};
    if (Status St = blobSection(V, SecEpsChains, C); !St.ok())
      return Err(St.error());
    uint32_t N;
    if (!C.readU32(N) || N > (1u << 20))
      return Err("artifact: corrupt ε-chain section");
    M.EpsChains.clear();
    M.EpsChains.reserve(N);
    for (uint32_t I = 0; I < N; ++I) {
      uint32_t Len;
      if (!C.readU32(Len) || Len > (1u << 20))
        return Err("artifact: corrupt ε-chain section");
      std::vector<ActionId> Chain(Len);
      for (uint32_t J = 0; J < Len; ++J) {
        if (!C.readPod(Chain[J]))
          return Err("artifact: corrupt ε-chain section");
        // buildEpsPrograms dereferences the action table with these ids
        // before the Verify audit runs — bound them here.
        if (Chain[J] < 0 ||
            static_cast<size_t>(Chain[J]) >= Actions.size())
          return Err("artifact: ε-chain action id out of range");
      }
      M.EpsChains.push_back(std::move(Chain));
    }
  }

  {
    Cursor C{nullptr, 0, 0, false};
    if (Status St = blobSection(V, SecSyncSpecs, C); !St.ok())
      return Err(St.error());
    uint32_t N;
    if (!C.readU32(N) || N > (1u << 20))
      return Err("artifact: corrupt sync-spec section");
    M.SyncSpecs.clear();
    M.SyncSpecs.resize(N);
    for (uint32_t I = 0; I < N; ++I) {
      CompiledParser::SyncSpec &SS = M.SyncSpecs[I];
      uint8_t Has;
      if (!C.readPod(Has) || !C.readPod(SS.Sync) || !C.readPod(SS.NotSync) ||
          !C.readPod(SS.SeqOnly))
        return Err("artifact: corrupt sync-spec section");
      SS.HasSync = Has != 0;
      uint32_t NumSeqs;
      if (!C.readU32(NumSeqs) || NumSeqs > (1u << 16))
        return Err("artifact: corrupt sync-spec section");
      SS.Seqs.resize(NumSeqs);
      for (uint32_t J = 0; J < NumSeqs; ++J)
        if (!C.readStr(SS.Seqs[J]))
          return Err("artifact: corrupt sync-spec section");
    }
  }

  {
    Cursor C{nullptr, 0, 0, false};
    if (Status St = blobSection(V, SecEntries, C); !St.ok())
      return Err(St.error());
    uint32_t N;
    if (!C.readU32(N) || N > (1u << 16))
      return Err("artifact: corrupt entry-point section");
    for (uint32_t I = 0; I < N; ++I) {
      std::string Name;
      uint32_t Nt;
      if (!C.readStr(Name) || !C.readU32(Nt))
        return Err("artifact: corrupt entry-point section");
      A.Entries[Name] = Nt;
    }
  }

  {
    Cursor C{nullptr, 0, 0, false};
    if (Status St = blobSection(V, SecGrammarName, C); !St.ok())
      return Err(St.error());
    A.Info.GrammarName.assign(reinterpret_cast<const char *>(C.P), C.N);
  }

  // Cheap cross-section shape checks (the audit re-proves the deep
  // invariants; these keep even a trusted load from indexing a string
  // table with a table-sized Nt id).
  if (M.NtNames.size() != M.Nts.size() ||
      M.NtExpected.size() != M.Nts.size() ||
      M.SyncSpecs.size() != M.Nts.size())
    return Err("artifact: per-nonterminal sections disagree on the "
               "nonterminal count");
  if (M.Nts.empty() || M.Start >= M.Nts.size())
    return Err("artifact: start nonterminal out of range");
  for (const auto &[Name, Nt] : A.Entries)
    if (Nt >= M.Nts.size())
      return Err("artifact: entry point '" + Name + "' out of range");
  const Table<CompiledParser::NtInfo> &NtsView = M.Nts; // const reads only:
  for (size_t I = 0; I < NtsView.size(); ++I)           // the table is borrowed
    if (NtsView[I].EpsChain >= 0 &&
        static_cast<size_t>(NtsView[I].EpsChain) >= M.EpsChains.size())
      return Err("artifact: ε-chain index out of range");

  // Rebind and rebuild the in-process pieces.
  M.Actions = &Actions;
  buildEpsPrograms(M, Actions);

  // Optional lexer DFA.
  if (A.Info.HasLexer) {
    LexScalars LS;
    if (Status St = readPodSection(V, SecLexScalars, LS); !St.ok())
      return Err(St.error());
    std::shared_ptr<CompiledLexer> L = ArtifactAccess::make(LS);
    if (Status St =
            borrowScanTables(V, SecLexScan, ArtifactAccess::scan(*L));
        !St.ok())
      return Err(St.error());
    if (Status St = borrowTable(V, SecLexAccept, ArtifactAccess::accept(*L));
        !St.ok())
      return Err(St.error());
    if (Status St = borrowTable(V, SecLexToks, ArtifactAccess::toks(*L));
        !St.ok())
      return Err(St.error());
    A.Lexer = L;
  }

  // The trust boundary: a first load of a foreign blob gets the full
  // PR 7 audit over the borrowed tables — every hot-loop invariant
  // re-proved before any engine entry point may run them.
  if (!O.Trusted) {
    VerifyOptions VO;
    VO.Lints = false; // grammar-level; needs a FusedGrammar, not tables
    VerifyReport R = verifyCompiledParser(M, VO);
    if (!R.ok()) {
      std::string Detail = "artifact: table audit failed (" + R.summary() +
                           ")";
      for (const VerifyFinding &F : R.Findings)
        if (F.Sev == VerifyFinding::Severity::Error) {
          Detail += ": " + F.Detail;
          break;
        }
      return Err(Detail);
    }
    if (A.Lexer) {
      VerifyReport LR = verifyCompiledLexer(*A.Lexer, VO);
      if (!LR.ok())
        return Err("artifact: lexer table audit failed (" + LR.summary() +
                   ")");
    }
  }

  return A;
}

Result<LoadedArtifact> flap::loadArtifact(const std::string &Path,
                                          const ActionTable &Actions,
                                          const LoadOptions &O) {
  Result<std::shared_ptr<MappedBlob>> B = MappedBlob::map(Path);
  if (!B.ok())
    return Err(B.error());
  return loadArtifact(std::move(*B), Actions, O);
}

//===--------------------------------------------------------------------===//
// Artifact cache
//===--------------------------------------------------------------------===//

namespace {
std::string hex64(uint64_t V) {
  char Buf[17];
  snprintf(Buf, sizeof(Buf), "%016llx",
           static_cast<unsigned long long>(V));
  return Buf;
}

std::string sanitizeName(const std::string &N) {
  std::string S;
  for (char C : N)
    S += (isalnum(static_cast<unsigned char>(C)) || C == '-' || C == '_')
             ? C
             : '_';
  return S.empty() ? "grammar" : S;
}
} // namespace

Result<CachedLoad> flap::loadArtifactCached(std::shared_ptr<GrammarDef> Def,
                                            const CacheOptions &O) {
  if (O.Dir.empty())
    return Err("artifact cache: no directory configured");
  ::mkdir(O.Dir.c_str(), 0755); // EEXIST is fine; real failures surface
                                // at the write below

  // Every compatibility axis lives in the key, so version/ABI/grammar
  // changes miss cleanly instead of failing a load.
  const uint64_t ActHash = hashActionTable(Def->L->Actions);
  const std::string Key = sanitizeName(Def->Name) + "-v" +
                          std::to_string(ArtifactFormatVersion) + "-" +
                          hex64(artifactTraitsWord()) + "-" +
                          hex64(ActHash) + ".flapart";
  CachedLoad CL;
  CL.Path = O.Dir + "/" + Key;

  LoadOptions LO;
  LO.Trusted = O.TrustCache;
  if (::access(CL.Path.c_str(), R_OK) == 0) {
    Result<LoadedArtifact> A = loadArtifact(CL.Path, Def->L->Actions, LO);
    if (A.ok() && A->Info.GrammarName == Def->Name) {
      CL.A = std::move(*A);
      CL.Hit = true;
      return CL;
    }
    // Stale or corrupt (version bump without a key bump, torn write,
    // hash-colliding foreign grammar): drop it and recompile.
    ::unlink(CL.Path.c_str());
  }

  const auto T0 = std::chrono::steady_clock::now();
  Result<FlapParser> P = Def->HasRecord ? compileFlapRecords(Def)
                                        : compileFlap(Def);
  if (!P.ok())
    return Err("artifact cache: compile failed: " + P.error());
  CL.CompileMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - T0)
                     .count();

  if (Status St = writeArtifact(*P, CL.Path); !St.ok())
    return Err(St.error());
  Result<LoadedArtifact> A = loadArtifact(CL.Path, Def->L->Actions, LO);
  if (!A.ok())
    return Err(A.error());
  CL.A = std::move(*A);
  CL.Hit = false;
  return CL;
}
