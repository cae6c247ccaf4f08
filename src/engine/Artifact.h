//===- engine/Artifact.h - Relocatable compiled-grammar blobs ---*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Zero-copy serialization of a finished CompiledParser (and optionally
/// the standalone CompiledLexer DFA) into one relocatable, versioned,
/// endian- and ABI-checked, checksummed blob — so a serving fleet loads
/// a grammar by mmap'ing a file instead of re-running compileFused on
/// every process, and ships new grammars as *data*, not binaries.
///
/// ## Format (see engine/README.md "Artifact format" for the contract)
///
/// One file:
///
///   [ArtifactHeader]            fixed-size POD, validated first
///   [Section table]             NumSections × ArtifactSection
///   [payload sections...]       each table section 64-byte aligned
///
/// Payload table sections are the machine's packed in-memory formats
/// written raw (the scan tables — tier bounds, Trans16, Trans8, Skip —
/// packed AccMeta, OpPool, packed symbol pools, ...), so loading a
/// table is a bounds check plus Table<T>::borrow() — zero copy, zero
/// allocation, the mapped pages ARE the tables. The parser's and the
/// optional lexer's scan tables (ScanTables, engine/DispatchTier.h)
/// share one section layout, written and borrowed by the same code.
/// Cold, non-POD state (nonterminal names, expected-token strings,
/// ε-chains, sync sequences, entry points) is serialized structurally
/// and copied out at load; it is small and off the hot path. Two pieces
/// intentionally do not serialize and are rebuilt at load in
/// microseconds: EpsPrograms (they hold live Values) and the binding to
/// the in-process ActionTable, which is instead *checked* against the
/// blob's ActionHash — an artifact only loads against the action table
/// shape it was compiled with.
///
/// ## Trust model
///
/// The PR 7 verifier is the load-time trust boundary. An *untrusted*
/// load (the default) validates the header, checks the whole-file
/// checksum, bounds-checks every section against the file size, and
/// then runs the full engine/Verify.h table audit over the borrowed
/// tables — the audit re-proves every invariant the hot loops assume
/// from the tables alone, so a blob that passes cannot steer an engine
/// entry point out of bounds. A *trusted* reload (same file, e.g. the
/// artifact cache's own directory) skips the audit and keeps only the
/// structural checks + checksum. Every rejection is a structured
/// Result error prefixed "artifact:"; corrupt blobs never reach the
/// hot loops (tests/ArtifactTest.cpp fuzzes this).
///
/// ## Lifetime
///
/// The loaded parser's hot tables borrow the mapping. LoadedArtifact
/// shares ownership of the MappedBlob; keep it (or a copy of
/// keepAlive()) alive for as long as any parser copy, reply, or value
/// derived from the tables is in use. The serving tier's hot-reload
/// generations pin it exactly this way (engine/Serve.h).
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_ENGINE_ARTIFACT_H
#define FLAP_ENGINE_ARTIFACT_H

#include "engine/Pipeline.h"
#include "lexer/CompiledLexer.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace flap {

/// Bumped on any change to the header, section set, or a serialized
/// format. There is no cross-version migration: a version mismatch is a
/// load error and the caller recompiles (the artifact cache does this
/// transparently).
constexpr uint32_t ArtifactFormatVersion = 2;

/// Little-/big-endian detector: written as the native integer, read
/// back and compared; a byte-swapped value means the blob was produced
/// on the other endianness (tables would be garbage — reject).
constexpr uint32_t ArtifactEndianTag = 0x01020304u;

/// The on-disk file header (POD, written raw at offset 0).
struct ArtifactHeader {
  char Magic[8];          ///< "flapart\0"
  uint32_t FormatVersion; ///< ArtifactFormatVersion
  uint32_t EndianTag;     ///< ArtifactEndianTag, native byte order
  /// Hash of the element sizes/layout the tables were written with
  /// (sizeof Sym/MicroOp/Cont/SkipSet/NtInfo/dispatchtier::Bounds/...).
  /// A compiler or ABI that lays the PODs out differently cannot borrow
  /// them.
  uint64_t TraitsWord;
  /// Shape hash of the ActionTable the machine was compiled against
  /// (per action: arity, kind, selectors, immediate, name). Load-time
  /// rebinding to the in-process table is only sound when this matches.
  uint64_t ActionHash;
  /// Checksum of the whole file with this field zeroed — header,
  /// section table and payload alike, so any bit flip anywhere fails
  /// the load before any table byte is interpreted.
  uint64_t FileHash;
  uint32_t NumSections;
  uint32_t Reserved;
};

/// One section-table entry. Table sections are 64-byte aligned so
/// borrowed SIMD loads keep the alignment the heap gave them.
struct ArtifactSection {
  uint32_t Id;       ///< ArtifactSectionId
  uint32_t ElemSize; ///< sizeof element as written (re-checked at load)
  uint64_t Offset;   ///< absolute file offset
  uint64_t Count;    ///< element count (bytes for blob sections)
};

/// Header-level facts about a blob, available without an action table
/// (inspectArtifact) and attached to every successful load.
struct ArtifactInfo {
  uint32_t FormatVersion = 0;
  uint64_t TraitsWord = 0;
  uint64_t ActionHash = 0;
  uint64_t FileHash = 0;
  size_t FileBytes = 0;
  size_t NumSections = 0;
  std::string GrammarName;
  bool HasLexer = false;
};

/// A read-only private mapping of one artifact file; unmapped when the
/// last shared owner drops. The serving tier's drain discipline rides
/// this: replies/generations hold the blob, the old mapping disappears
/// when its last borrower finishes (engine/Serve.h).
class MappedBlob {
public:
  /// mmap's \p Path read-only. Fails with a structured "artifact:"
  /// error on open/stat/map failure or an empty file.
  static Result<std::shared_ptr<MappedBlob>> map(const std::string &Path);

  /// Adopts an in-memory buffer instead of a file (tests fuzz blobs
  /// without touching disk; serialize → corrupt → load).
  static std::shared_ptr<MappedBlob> fromBuffer(std::string Bytes);

  const uint8_t *data() const { return Data; }
  size_t size() const { return Size; }
  const std::string &path() const { return Path; }

  /// Checksum memo for the load path. The mapping is immutable for its
  /// lifetime (PROT_READ / private buffer), so once one load has
  /// verified the whole-file hash, later loads of the *same* blob
  /// object — the registry re-binding a resident generation, several
  /// services sharing one mapping — skip recomputing it. A fresh
  /// mapping of the same file always re-verifies: the memo lives here,
  /// not on the path.
  uint64_t verifiedHash() const {
    return Verified.load(std::memory_order_acquire);
  }
  void noteVerified(uint64_t Hash) const {
    Verified.store(Hash, std::memory_order_release);
  }

  MappedBlob(const MappedBlob &) = delete;
  MappedBlob &operator=(const MappedBlob &) = delete;
  ~MappedBlob();

private:
  MappedBlob() = default;
  mutable std::atomic<uint64_t> Verified{0};
  const uint8_t *Data = nullptr;
  size_t Size = 0;
  void *MapBase = nullptr; ///< munmap target (null for buffer blobs)
  size_t MapLen = 0;
  std::string Buffer; ///< fromBuffer storage
  std::string Path;
};

struct LoadOptions {
  /// Skip the full engine/Verify.h table audit (structural checks and
  /// the checksum always run). Reserve for blobs this process (or its
  /// own cache directory) wrote; first loads of foreign blobs must
  /// stay untrusted.
  bool Trusted = false;
};

/// A machine loaded from a blob. The parser's hot tables alias the
/// mapping — copies of M (e.g. into a serving Generation) stay views,
/// so anything that uses them must also keep keepAlive() alive.
struct LoadedArtifact {
  std::shared_ptr<MappedBlob> Blob;
  CompiledParser M;
  /// The standalone lexer DFA, when the blob carries one.
  std::shared_ptr<const CompiledLexer> Lexer;
  /// Named entry points (FlapParser::Entries at serialization time).
  std::map<std::string, NtId> Entries;
  ArtifactInfo Info;

  /// Entries["record"], or NoNt — the shard layer's record nonterminal.
  NtId recordEntry() const {
    auto It = Entries.find("record");
    return It == Entries.end() ? NoNt : It->second;
  }
  /// The handle whose lifetime gates the mapping.
  std::shared_ptr<const void> keepAlive() const { return Blob; }
};

//===----------------------------------------------------------------------===//
// Serialize / write
//===----------------------------------------------------------------------===//

/// Serializes \p P's machine (plus \p L when given) into one blob.
std::string serializeArtifact(const FlapParser &P,
                              const CompiledLexer *L = nullptr);

/// serializeArtifact + atomic write: tmp file in the target directory,
/// fsync-free rename into place (a concurrent reader sees either the
/// old file or the complete new one, never a torn write).
Status writeArtifact(const FlapParser &P, const std::string &Path,
                     const CompiledLexer *L = nullptr);

//===----------------------------------------------------------------------===//
// Load / inspect
//===----------------------------------------------------------------------===//

/// Full load: validate, checksum, borrow tables, rebind \p Actions
/// (must hash-match the blob), rebuild ε-programs, and — unless
/// O.Trusted — run the complete table audit.
Result<LoadedArtifact> loadArtifact(std::shared_ptr<MappedBlob> Blob,
                                    const ActionTable &Actions,
                                    const LoadOptions &O = {});
Result<LoadedArtifact> loadArtifact(const std::string &Path,
                                    const ActionTable &Actions,
                                    const LoadOptions &O = {});

/// Header + section-table peek: everything in ArtifactInfo, with the
/// same structural validation and checksum as a load but no table
/// borrowing (and thus no action table needed). flap_verify uses this
/// to resolve which registered grammar a blob claims to be.
Result<ArtifactInfo> inspectArtifact(const std::string &Path);

//===----------------------------------------------------------------------===//
// On-disk artifact cache
//===----------------------------------------------------------------------===//

struct CacheOptions {
  std::string Dir; ///< cache directory (created if absent)
  /// The cache's own files were written by this process family; reloads
  /// are checksum-only by default. Set false to re-audit every hit.
  bool TrustCache = true;
};

struct CachedLoad {
  LoadedArtifact A;
  bool Hit = false;     ///< served from an existing artifact
  std::string Path;     ///< the cache file used/written
  double CompileMs = 0; ///< full pipeline cost paid on a miss (0 on hit)
};

/// Cache-through compile: looks for an artifact keyed by (grammar name,
/// format version, target traits, action-table hash); on miss — or on a
/// stale/corrupt file, which is deleted — runs the pipeline
/// (compileFlapRecords when Def->HasRecord, else compileFlap), writes
/// the artifact atomically, and loads it back. The key puts every
/// compatibility axis in the file name, so version or ABI bumps miss
/// (and recompile) instead of failing.
Result<CachedLoad> loadArtifactCached(std::shared_ptr<GrammarDef> Def,
                                      const CacheOptions &O);

//===----------------------------------------------------------------------===//
// Hashes (exposed for tests and the cache key)
//===----------------------------------------------------------------------===//

/// FNV-1a-64 over \p N bytes, word-at-a-time, continuing from \p Seed.
uint64_t artifactHash(const void *Data, size_t N, uint64_t Seed);
constexpr uint64_t ArtifactHashSeed = 0xcbf29ce484222325ull;

/// The shape hash stored in ArtifactHeader::ActionHash.
uint64_t hashActionTable(const ActionTable &A);

/// The ABI word stored in ArtifactHeader::TraitsWord.
uint64_t artifactTraitsWord();

/// Recomputes and patches ArtifactHeader::FileHash of an in-memory
/// blob. Exposed for the corruption fuzzer, which needs to distinguish
/// "checksum catches the flip" from "a checksum-consistent malicious
/// blob is caught by the audit or survived by the engine".
void rehashArtifact(std::string &Blob);

} // namespace flap

#endif // FLAP_ENGINE_ARTIFACT_H
