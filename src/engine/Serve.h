//===- engine/Serve.h - Thread-pooled serving front-end ---------*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-pooled front-end over the batch serving API: N workers,
/// each owning a warmed ParseScratch, drain a bounded MPMC request
/// queue through CompiledParser::parseBatch / parseBatchRecover and
/// fulfill a std::future per request. This is the multi-core version of
/// the single-thread serving contract (engine/README.md): per-request
/// cost amortizes across the batch, malformed inputs yield diagnostics
/// instead of poisoning neighbours, and results may outlive both the
/// request and the service.
///
/// Pool discipline (the part worth reading twice): a worker's symbol
/// and value *stacks* are thread-pinned for the service's lifetime —
/// they never cross threads and stay warm across requests. The value
/// *pool* cannot be pinned the same way, because results escape to
/// whatever thread consumes the future while pooled nodes recycle
/// through their pool's freelists as they die. So pools travel WITH the
/// reply: each request checks a pool out of a shared PoolBank, the
/// worker adopts it (ValuePool::adoptOwner) for the parse, and the
/// reply carries it to the consumer, whose first pool touch re-adopts
/// it — ownership moves over the future's synchronization point, never
/// concurrently. When the reply dies, its destructor returns the pool
/// to the bank *if no result value still uses it* (its live-node count
/// is zero); otherwise the pool simply stays alive until the escaped
/// values die, and the bank mints a fresh one for the next request. The
/// bank's mutex provides the happens-before between the consumer's last
/// free and the next worker's first allocation. Debug builds assert all of
/// this (cfe/Value.h), and the whole harness runs under TSan in CI
/// (tier1-tsan).
///
/// Shutdown contract: shutdown() (and the destructor) stops intake,
/// drains every queued request, and joins the workers — submitted
/// futures always become ready. A submit racing shutdown may be
/// rejected: its reply is ready immediately with Accepted == false and
/// no results (no exceptions on this path).
///
/// bench/ServeThroughput.cpp records throughput and p50/p95/p99
/// submit→ready latency at request-sized payloads (BENCH_parallel.json).
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_ENGINE_SERVE_H
#define FLAP_ENGINE_SERVE_H

#include "engine/Compile.h"

#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace flap {

struct ServeOptions {
  /// Worker threads; 0 → hardware concurrency.
  size_t Threads = 0;
  /// Bounded queue: submit() blocks when this many requests are
  /// pending (backpressure, not unbounded memory).
  size_t QueueCapacity = 256;
  /// Serve through parseBatchRecover instead of parseBatch: replies
  /// carry RecoveredParse (values + structured diagnostics) per input.
  bool Recover = false;
  RecoverOptions RecOpts{};
};

/// A shared checkout of value pools; see the pool discipline in the
/// file header. Replies hold the bank weakly through a shared_ptr so a
/// reply outliving the service returns its pool to a bank that is
/// itself still alive.
class PoolBank {
public:
  ValuePoolRef acquire();
  /// Recycles \p P if none of its nodes is live; a pool still used by
  /// escaped values is dropped (it dies with its last value).
  void give(ValuePoolRef P);

private:
  std::mutex Mu;
  std::vector<ValuePoolRef> Free;
};

/// One request's results. Movable, not copyable; destruction returns
/// the value pool to the service's bank. Consume (and destroy) a reply
/// on one thread at a time — its values share one pool.
struct ServeReply {
  /// False only when the request raced shutdown and was rejected;
  /// Results/Recovered are empty then.
  bool Accepted = true;
  /// Strict mode: one Result per input, same order.
  std::vector<Result<Value>> Results;
  /// Recovery mode (ServeOptions::Recover): one RecoveredParse per
  /// input.
  std::vector<RecoveredParse> Recovered;

  ServeReply() = default;
  ServeReply(ServeReply &&) = default;
  ServeReply &operator=(ServeReply &&O) noexcept;
  ServeReply(const ServeReply &) = delete;
  ServeReply &operator=(const ServeReply &) = delete;
  ~ServeReply();

  /// The arena this reply's values were built in (null for a rejected
  /// reply). Lets callers observe pool recycling across requests.
  const ValuePool *pool() const { return Pool.get(); }

private:
  friend class ParseService;
  ValuePoolRef Pool;
  std::shared_ptr<PoolBank> Bank;
  /// Registry-backed services: the generation that parsed this reply.
  /// Held until the reply dies, so a hot reload never unmaps tables a
  /// live reply's provenance might still reference.
  std::shared_ptr<const void> Keep;
};

//===----------------------------------------------------------------------===//
// Grammar registry + hot reload
//===----------------------------------------------------------------------===//

/// One installed grammar generation: a machine (typically a borrowed
/// view over an artifact mapping — engine/Artifact.h), its serving
/// entry point, and whatever owns the storage behind the tables. The
/// registry hands these out as shared snapshots; the storage (mmap,
/// FlapParser, ...) lives exactly as long as the last snapshot.
struct GrammarGeneration {
  CompiledParser M; ///< view copy when loaded from an artifact
  NtId Start = NoNt;
  /// Pins the table storage: LoadedArtifact::keepAlive(), a
  /// shared_ptr<FlapParser>, ... Never null for artifact-backed
  /// generations.
  std::shared_ptr<const void> Keep;
  uint64_t Serial = 0; ///< monotonic install counter (tests, logs)
};

/// Named, atomically swappable grammar generations — the hot-reload
/// seam. install() publishes a new generation under a name; workers
/// snapshot the current generation per dequeued batch, so in-flight
/// batches finish on the tables they started with, new submits see the
/// new tables, and the old storage unmaps when its last borrower
/// (generation snapshot or undestructed reply) drains.
class GrammarRegistry {
public:
  /// Publishes \p M under \p Name, replacing any previous generation.
  /// \p Keep must own the storage behind M's tables (for an artifact:
  /// LoadedArtifact::keepAlive()). Returns the generation serial.
  uint64_t install(const std::string &Name, const CompiledParser &M,
                   NtId Start, std::shared_ptr<const void> Keep);

  /// The current generation for \p Name, or null when absent. The
  /// snapshot stays valid (tables readable) for as long as the caller
  /// holds it, regardless of later installs.
  std::shared_ptr<const GrammarGeneration>
  current(const std::string &Name) const;

  /// Drops \p Name; in-flight snapshots stay valid.
  void remove(const std::string &Name);

  std::vector<std::string> names() const;

private:
  mutable std::mutex Mu;
  std::map<std::string, std::shared_ptr<const GrammarGeneration>> Grammars;
  uint64_t NextSerial = 1;
};

/// The thread-pooled serving harness. Construction spawns the workers;
/// destruction drains and joins. In the fixed-machine form the
/// CompiledParser must outlive the service AND every reply; in the
/// registry form each reply pins the generation that parsed it, so
/// reloads are safe at any time.
class ParseService {
public:
  ParseService(const CompiledParser &M, NtId Start, ServeOptions O = {});

  /// Registry-backed form: every dequeued batch parses with
  /// R.current(Grammar) at dequeue time — the hot-reload contract in
  /// GrammarRegistry's doc comment. \p R must outlive the service.
  /// Requests dequeued while \p Grammar has no installed generation are
  /// rejected (Accepted == false).
  ParseService(GrammarRegistry &R, std::string Grammar, ServeOptions O = {});
  ~ParseService();
  ParseService(const ParseService &) = delete;
  ParseService &operator=(const ParseService &) = delete;

  /// Enqueues one batch request. The string_views must stay valid until
  /// the future is ready (the service never copies input bytes). \p User
  /// is passed to every input's actions. Blocks while the queue is
  /// full; returns a ready Accepted == false reply if the service is
  /// shutting down.
  std::future<ServeReply> submit(std::vector<std::string_view> Inputs,
                                 void *User = nullptr);

  /// Stops intake, drains the queue, joins the workers. Idempotent;
  /// the destructor calls it.
  void shutdown();

  size_t threads() const { return Workers.size(); }

private:
  struct Request {
    std::vector<std::string_view> Inputs;
    void *User = nullptr;
    std::promise<ServeReply> Promise;
  };

  void workerLoop();

  /// Fixed-machine form (null in the registry form).
  const CompiledParser *M = nullptr;
  NtId Start = NoNt;
  /// Registry form (null in the fixed-machine form).
  GrammarRegistry *Reg = nullptr;
  std::string Grammar;
  ServeOptions Opts;
  std::shared_ptr<PoolBank> Bank;

  std::mutex Mu;
  std::condition_variable NotEmpty; ///< workers: a request is queued
  std::condition_variable NotFull;  ///< producers: capacity freed
  std::deque<Request> Queue;
  bool Stopping = false;
  std::vector<std::thread> Workers;
};

} // namespace flap

#endif // FLAP_ENGINE_SERVE_H
