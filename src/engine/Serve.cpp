//===- engine/Serve.cpp - Thread-pooled serving front-end ----------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "engine/Serve.h"

using namespace flap;

//===--------------------------------------------------------------------===//
// PoolBank
//===--------------------------------------------------------------------===//

ValuePoolRef PoolBank::acquire() {
  {
    std::lock_guard<std::mutex> G(Mu);
    if (!Free.empty()) {
      ValuePoolRef P = std::move(Free.back());
      Free.pop_back();
      return P;
    }
  }
  return ValuePool::create();
}

void PoolBank::give(ValuePoolRef P) {
  // Values do not hold pool handles, so only the live-node count says
  // whether a value escaped. Zero live nodes (read here by the owner,
  // the reply's destroying thread) and no other handle mean nothing
  // uses the pool any more, so its freelists are coherent and the next
  // acquire may reuse them. The mutex is the happens-before edge
  // between the consumer thread that freed the last node and the worker
  // that allocates next.
  if (P->liveNodes() != 0 || P.use_count() != 1)
    return; // escaped values keep it alive; it dies with the last one
  std::lock_guard<std::mutex> G(Mu);
  Free.push_back(std::move(P));
}

//===--------------------------------------------------------------------===//
// ServeReply
//===--------------------------------------------------------------------===//

ServeReply::~ServeReply() {
  if (!Pool || !Bank)
    return; // moved-from, or a rejected reply that never got a pool
  // Free the values BEFORE offering the pool back, so a reply whose
  // results never escaped recycles its pool (all nodes returned to the
  // freelists this destructor's thread owns right now).
  Pool->adoptOwner();
  Results.clear();
  Recovered.clear();
  Bank->give(std::move(Pool));
}

ServeReply &ServeReply::operator=(ServeReply &&O) noexcept {
  if (this != &O) {
    // Run the full destructor protocol on the overwritten reply.
    this->~ServeReply();
    new (this) ServeReply(std::move(O));
  }
  return *this;
}

//===--------------------------------------------------------------------===//
// GrammarRegistry
//===--------------------------------------------------------------------===//

uint64_t GrammarRegistry::install(const std::string &Name,
                                  const CompiledParser &M, NtId Start,
                                  std::shared_ptr<const void> Keep) {
  auto Gen = std::make_shared<GrammarGeneration>();
  // Copying the machine keeps borrowed tables as views (Table<T> copy
  // semantics, engine/TableStore.h) — installing an artifact-backed
  // machine copies pointers, not tables.
  Gen->M = M;
  Gen->Start = Start;
  Gen->Keep = std::move(Keep);
  std::lock_guard<std::mutex> G(Mu);
  Gen->Serial = NextSerial++;
  const uint64_t Serial = Gen->Serial;
  // The swap is the whole reload: the old generation's shared_ptr
  // refcount drains as snapshot holders finish, then its Keep releases
  // the storage (for an artifact, the munmap).
  Grammars[Name] = std::move(Gen);
  return Serial;
}

std::shared_ptr<const GrammarGeneration>
GrammarRegistry::current(const std::string &Name) const {
  std::lock_guard<std::mutex> G(Mu);
  auto It = Grammars.find(Name);
  return It == Grammars.end() ? nullptr : It->second;
}

void GrammarRegistry::remove(const std::string &Name) {
  std::lock_guard<std::mutex> G(Mu);
  Grammars.erase(Name);
}

std::vector<std::string> GrammarRegistry::names() const {
  std::lock_guard<std::mutex> G(Mu);
  std::vector<std::string> Out;
  Out.reserve(Grammars.size());
  for (const auto &[Name, Gen] : Grammars)
    Out.push_back(Name);
  return Out;
}

//===--------------------------------------------------------------------===//
// ParseService
//===--------------------------------------------------------------------===//

namespace {
size_t resolveThreads(size_t Requested) {
  size_t T = Requested ? Requested : std::thread::hardware_concurrency();
  return T ? T : 1;
}
} // namespace

ParseService::ParseService(const CompiledParser &M, NtId Start, ServeOptions O)
    : M(&M), Start(Start), Opts(O), Bank(std::make_shared<PoolBank>()) {
  size_t T = resolveThreads(Opts.Threads);
  Workers.reserve(T);
  for (size_t I = 0; I < T; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ParseService::ParseService(GrammarRegistry &R, std::string GrammarName,
                           ServeOptions O)
    : Reg(&R), Grammar(std::move(GrammarName)), Opts(O),
      Bank(std::make_shared<PoolBank>()) {
  size_t T = resolveThreads(Opts.Threads);
  Workers.reserve(T);
  for (size_t I = 0; I < T; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ParseService::~ParseService() { shutdown(); }

void ParseService::shutdown() {
  {
    std::lock_guard<std::mutex> G(Mu);
    if (Stopping && Workers.empty())
      return;
    Stopping = true;
  }
  NotEmpty.notify_all();
  NotFull.notify_all();
  for (std::thread &W : Workers)
    W.join();
  Workers.clear();
}

std::future<ServeReply> ParseService::submit(
    std::vector<std::string_view> Inputs, void *User) {
  std::promise<ServeReply> P;
  std::future<ServeReply> F = P.get_future();
  {
    std::unique_lock<std::mutex> L(Mu);
    NotFull.wait(L, [&] {
      return Stopping || Queue.size() < Opts.QueueCapacity;
    });
    if (Stopping) {
      ServeReply R;
      R.Accepted = false;
      P.set_value(std::move(R));
      return F;
    }
    Queue.push_back(Request{std::move(Inputs), User, std::move(P)});
  }
  NotEmpty.notify_one();
  return F;
}

void ParseService::workerLoop() {
  // The worker's stacks: thread-pinned, warm across requests. The pool
  // member is swapped per request from the bank (file-header contract);
  // the scratch's own construction-time pool is never used.
  ParseScratch Scratch;
  for (;;) {
    Request Req;
    {
      std::unique_lock<std::mutex> L(Mu);
      NotEmpty.wait(L, [&] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping && drained
      Req = std::move(Queue.front());
      Queue.pop_front();
    }
    NotFull.notify_one();

    // Hot-reload discipline: the generation is snapshotted HERE, once
    // per dequeued batch. A reload between two batches on this worker
    // swaps tables; a reload during a batch does not — the snapshot
    // (and then the reply's Keep) pins the old generation until the
    // last borrower drains.
    const CompiledParser *PM = M;
    NtId PStart = Start;
    std::shared_ptr<const GrammarGeneration> Gen;
    if (Reg) {
      Gen = Reg->current(Grammar);
      if (!Gen) {
        ServeReply Rej;
        Rej.Accepted = false;
        Req.Promise.set_value(std::move(Rej));
        continue;
      }
      PM = &Gen->M;
      PStart = Gen->Start;
    }

    ServeReply Rep;
    Rep.Bank = Bank;
    Rep.Keep = Gen;
    Rep.Pool = Bank->acquire();
    Rep.Pool->adoptOwner();
    Scratch.Pool = Rep.Pool;
    const size_t N = Req.Inputs.size();
    if (Opts.Recover) {
      // parseBatchRecover takes per-input contexts; expand the shared
      // one when present.
      std::vector<void *> Users;
      if (Req.User)
        Users.assign(N, Req.User);
      Rep.Recovered =
          PM->parseBatchRecover(PStart, Req.Inputs.data(), N, Scratch,
                                Req.User ? Users.data() : nullptr,
                                Opts.RecOpts);
    } else {
      Rep.Results = PM->parseBatch(PStart, Req.Inputs.data(), N, Scratch,
                                   Req.User);
    }
    // Detach the pool from this thread before the handoff: the future's
    // synchronization point carries it to the consumer, who re-adopts.
    Scratch.Pool.reset();
    Rep.Pool->disownOwner();
    Req.Promise.set_value(std::move(Rep));
  }
}
