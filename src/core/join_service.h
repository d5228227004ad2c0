// JoinService — multi-tenant session manager over SssjEngine.
//
// One process serving many users means many independent joins: each
// tenant (a user's feed, a topic, a shard of the corpus) gets a named
// *session* — its own engine with its own EngineConfig, sink chain,
// stats, id space, and memory accounting — while the service owns the
// shared machinery: one thread pool for every MiniBatch session's
// window-close fan-out (instead of one pool per engine), built at the
// first close that fans out, and the aggregate capacity view.
//
//   sssj::JoinService service;  // pool sized to the hardware threads
//   sssj::CollectorSink news_sink;
//   auto news = service.CreateSession({"news", news_cfg, &news_sink});
//   auto spam = service.CreateSession({"spam", spam_cfg, &spam_sink});
//   service.Push(*news, ts, vec);            // thread A
//   service.Push(*spam, ts2, vec2);          // thread B, concurrently
//   service.CloseSession(*news);             // flushes, then destroys
//
// Thread-safety: every method is safe to call from any thread. Calls on
// *distinct* sessions run concurrently (each session has its own lock,
// and a handle resolves without the registry lock). Calls on the *same*
// session are serialized by its lock — the per-session stream is a
// totally ordered sequence, exactly like a standalone engine. Output per
// session is bit-identical to a standalone engine with the same config
// fed the same stream (tested with TSan), because engines never share
// mutable state — the shared pool only lends threads, and pool size
// never affects results (determinism hangs on EngineConfig::num_threads).
//
// Sink lifetime: a session's sink chain is bound at creation. A borrowed
// `sink` must outlive the session; an `owned_sink` chain head is adopted
// and destroyed with it. Sinks of different sessions are independent, so
// they need no locking unless the application shares one across sessions
// (then use a thread-safe sink such as ConcurrentCollectingSink).
#ifndef SSSJ_CORE_JOIN_SERVICE_H_
#define SSSJ_CORE_JOIN_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace sssj {

// Service-wide knobs (namespace-scope so it can default-construct in the
// JoinService constructor's default argument).
struct JoinServiceOptions {
  // Threads of the pool shared by every MiniBatch session's window-close
  // fan-out, including the calling thread. 0 (default) uses every
  // hardware thread. The pool belongs to this service (never process-
  // global, so a forked child never inherits one it would use) and spawns
  // its threads at the first window close that fans out, never in the
  // constructor. 1 disables the shared pool: MB sessions then get private
  // pools, as standalone engines do. STR sessions run sequentially and
  // never use it.
  size_t num_threads = 0;
  // Service-wide cap on the sum of every live session's MemoryBytes().
  // 0 (default) = unlimited. When a Push/PushBatch would run while the
  // total is over budget, the service first evicts dormant sessions
  // (least-recently-active first) to checkpoint files under `spill_dir`;
  // an evicted session reloads transparently on its next push. If no
  // evictable session remains and the total is still over budget, the
  // push is refused with kResourceExhausted — deterministic backpressure
  // instead of an OOM kill. Only STR-L2 and migration-enabled sessions
  // are evictable (the checkpointable configurations); other sessions
  // count toward the total but are never evicted.
  size_t memory_budget_bytes = 0;
  // Directory for eviction checkpoints. Empty (default) disables
  // eviction: budget enforcement then has only the kResourceExhausted
  // lever. The directory must exist and be writable.
  std::string spill_dir;
};

// Aggregate capacity view across live sessions, for monitoring.
struct ServiceStats {
  size_t num_sessions = 0;
  uint64_t vectors_processed = 0;  // sum over live sessions
  uint64_t pairs_emitted = 0;      // sum over live sessions
  size_t memory_bytes = 0;         // sum of the sessions' shares
  // Budget enforcement counters (all zero when memory_budget_bytes == 0).
  uint64_t sessions_evicted = 0;   // evict-to-checkpoint events, lifetime
  uint64_t session_reloads = 0;    // transparent reloads, lifetime
  uint64_t budget_rejections = 0;  // pushes refused with kResourceExhausted

  struct SessionEntry {
    std::string name;
    uint64_t vectors_processed = 0;
    uint64_t pairs_emitted = 0;
    // The engine's MemoryBytes() as last cached by the service: the share
    // the memory budget totals.
    size_t memory_bytes = 0;
    bool evicted = false;  // currently spilled to its checkpoint file
  };
  std::vector<SessionEntry> sessions;  // sorted by session name
};

class JoinService {
 private:
  struct Session;

 public:
  // Opaque session handle. A default-constructed handle is invalid and
  // every call taking it returns kNotFound, as does a handle of another
  // service or of a closed session. The handle keeps the session's
  // bookkeeping (not its engine, which closing releases) alive, so a call
  // resolves it without a registry lookup: pass it by reference, copies
  // cost a reference-count update.
  class SessionHandle {
   public:
    SessionHandle() = default;
    bool valid() const { return session_ != nullptr; }

   private:
    friend class JoinService;
    explicit SessionHandle(std::shared_ptr<Session> session)
        : session_(std::move(session)) {}
    std::shared_ptr<Session> session_;
  };

  using Options = JoinServiceOptions;

  struct SessionOptions {
    std::string name;  // must be non-empty and unique within the service
    EngineConfig engine;
    // Where this session's pairs go: either borrowed (must outlive the
    // session) or adopted. If both are set, `sink` wins and `owned_sink`
    // is just kept alive; if neither, results are discarded.
    ResultSink* sink = nullptr;
    std::unique_ptr<ResultSink> owned_sink;

    SessionOptions() = default;
    SessionOptions(std::string name_in, const EngineConfig& engine_in,
                   ResultSink* sink_in)
        : name(std::move(name_in)), engine(engine_in), sink(sink_in) {}
  };

  explicit JoinService(const Options& options = {});
  // Destroys all sessions without flushing; CloseSession first if the MB
  // windows' tail results matter.
  ~JoinService();

  JoinService(const JoinService&) = delete;
  JoinService& operator=(const JoinService&) = delete;

  // Creates a session. Failures:
  //   kInvalidArgument  empty session name
  //   kAlreadyExists    a live session already has this name
  //   (plus anything SssjEngine::Make rejects, forwarded verbatim)
  // EngineConfig::pool is overridden with the service pool (when the
  // service has one and the session does not ask for num_threads = 1).
  StatusOr<SessionHandle> CreateSession(SessionOptions options)
      SSSJ_EXCLUDES(mu_);

  // Looks a live session up by name (kNotFound otherwise).
  StatusOr<SessionHandle> FindSession(const std::string& name) const
      SSSJ_EXCLUDES(mu_);

  // Flushes buffered state into the session's sink, then destroys the
  // session. The name becomes reusable.
  Status CloseSession(const SessionHandle& handle) SSSJ_EXCLUDES(mu_);

  // Destroys the session WITHOUT the final flush, discarding any pairs
  // still pending in MB windows — for callers that have already captured
  // the session's state in a portable checkpoint (the cluster layer's
  // MigrateOut: the pending pairs live on in the checkpoint and emit at
  // the destination; flushing here would emit them twice). An evicted
  // session's spill files are deleted, not restored.
  Status AbandonSession(const SessionHandle& handle) SSSJ_EXCLUDES(mu_);

  // Per-session mirrors of the engine API; all return kNotFound for an
  // unknown/closed handle, otherwise exactly what the underlying engine
  // returns.
  Status Push(const SessionHandle& handle, Timestamp ts, SparseVector vec)
      SSSJ_EXCLUDES(mu_);
  StatusOr<BatchPushResult> PushBatch(const SessionHandle& handle,
                                      const Stream& batch) SSSJ_EXCLUDES(mu_);
  Status Flush(const SessionHandle& handle);
  Status SaveCheckpoint(const SessionHandle& handle,
                        const std::string& path) const;
  Status LoadCheckpoint(const SessionHandle& handle, const std::string& path);
  // Stream-based checkpoint cores, for embedding a session's state in a
  // larger container (the cluster layer ships them as migration frames).
  Status SaveCheckpoint(const SessionHandle& handle, std::ostream& os) const;
  Status LoadCheckpoint(const SessionHandle& handle, std::istream& is);
  // Live scheme migration on one session (its engine must have migration
  // enabled — adaptive.enable_migration or IndexScheme::kAuto). Runs
  // under the session lock like every per-session call, so it can never
  // interleave with a Push/Flush on the same session; other sessions are
  // unaffected. Forwards exactly what SssjEngine::SwitchScheme returns.
  Status SwitchScheme(const SessionHandle& handle, Framework framework,
                      IndexScheme scheme) SSSJ_EXCLUDES(mu_);
  StatusOr<RunStats> SessionStats(const SessionHandle& handle) const;
  StatusOr<size_t> SessionMemoryBytes(const SessionHandle& handle) const;

  size_t num_sessions() const SSSJ_EXCLUDES(mu_);

  // ---- spill manifests (eviction that survives the process) ----
  //
  // Every evicted session leaves TWO files in spill_dir: the checkpoint
  // and a versioned manifest recording which session the checkpoint
  // belongs to. The manifest is what makes a spill restorable by a
  // *different* JoinService instance (a restarted worker): filenames
  // alone used to embed a per-instance registry id, so nothing could map
  // files back to sessions after the instance died.
  struct SpillEntry {
    std::string name;             // session name, decoded from the manifest
    std::string checkpoint_path;  // the spilled engine checkpoint
    std::string manifest_path;
  };

  // Scans `spill_dir` for manifests this library wrote (any instance,
  // any process). Unreadable or version-mismatched manifests are
  // skipped, not fatal — a newer build's spills must not brick an older
  // supervisor's scan. kIoError when the directory cannot be opened.
  static StatusOr<std::vector<SpillEntry>> ListSpilled(
      const std::string& spill_dir);

  // CreateSession, then restore the new session's engine from
  // `checkpoint_path` before returning. On a failed load the session is
  // abandoned (never observable with partial state) and the load error
  // is returned. The checkpoint file is left in place — pair it with
  // RemoveSpill once the restored session is confirmed live.
  StatusOr<SessionHandle> RestoreSession(SessionOptions options,
                                         const std::string& checkpoint_path)
      SSSJ_EXCLUDES(mu_);

  // Deletes a spill's checkpoint + manifest pair (after a successful
  // RestoreSession adoption).
  static void RemoveSpill(const SpillEntry& entry);

  // Aggregates per-session RunStats and cached byte shares under the
  // session locks — safe while other threads keep pushing.
  ServiceStats Stats() const SSSJ_EXCLUDES(mu_);

 private:
  struct Session {
    // No other thread can see a session before the registry insert, so
    // the constructor sets the mu-guarded engine without the lock.
    Session(const JoinService* owner_in, std::string name_in,
            std::unique_ptr<SssjEngine> engine_in)
        : owner(owner_in),
          name(std::move(name_in)),
          engine(std::move(engine_in)) {}

    Mutex mu;
    const JoinService* const owner;
    const std::string name;
    // Declared before `engine` so it outlives engine teardown (members
    // destroy in reverse order; the engine's bound sink points here).
    std::unique_ptr<ResultSink> owned_sink;
    std::unique_ptr<SssjEngine> engine SSSJ_GUARDED_BY(mu);
    // Set under mu by CloseSession/AbandonSession (which then release the
    // engine) and by the service destructor. Every call checks it and
    // returns kNotFound instead of touching a closed engine.
    bool closed SSSJ_GUARDED_BY(mu) = false;
    // ---- budget/eviction state ----
    EngineConfig config;             // resolved config, for engine rebuild
    ResultSink* bound_sink = nullptr;  // sink the engine was built with
    // The engine's exact MemoryBytes() (an O(1) read), refreshed after
    // each locked operation; atomic so EnforceBudget can total the
    // service without taking every session's lock.
    std::atomic<size_t> mem_bytes{0};
    std::atomic<uint64_t> last_active{0};  // service activity clock tick
    bool evicted SSSJ_GUARDED_BY(mu) = false;
    std::string spill_path SSSJ_GUARDED_BY(mu);  // set iff evicted
    // The engine's RunStats at eviction, served while evicted (the
    // stand-in engine has none).
    RunStats evicted_stats SSSJ_GUARDED_BY(mu);
  };

  // The session's RunStats, the eviction snapshot while it is evicted.
  static const RunStats& StatsOf(const Session& session)
      SSSJ_REQUIRES(session.mu);

  // The handle's session, or null for an invalid handle or one of another
  // service. The caller's handle keeps it alive; whether it is closed is
  // read under its lock.
  Session* Lookup(const SessionHandle& handle) const;
  // Drops the session from the registry; false when it was not there.
  bool Unregister(Session* session) SSSJ_EXCLUDES(mu_);
  // Marks the session closed and releases its engine and sink.
  static void Retire(Session* session) SSSJ_REQUIRES(session->mu);
  static Status UnknownSession();

  // True for the checkpointable configurations eviction supports:
  // sessions that are either STR-L2 (native checkpoint) or
  // migration-enabled (portable checkpoint — any framework×scheme, any
  // thread count).
  static bool Evictable(const Session& session);
  // Refreshes the session's cached accounting + LRU clock.
  void NoteActivity(Session* session) const SSSJ_REQUIRES(session->mu);
  // Brings an evicted session back (LoadCheckpoint from its spill file,
  // which is then deleted).
  Status EnsureResident(Session* session) const SSSJ_REQUIRES(session->mu);
  // Replaces the session's state with a checkpoint read by `load`. An
  // evicted session loads into a fresh engine that is swapped in, and its
  // spill removed, only on success: a failed load leaves it evicted with
  // its spill intact.
  template <typename Load>
  Status LoadInto(Session* session, Load&& load) SSSJ_REQUIRES(session->mu);
  // Spills the session to a checkpoint file and swaps in a fresh empty
  // engine.
  Status EvictLocked(Session* victim) SSSJ_REQUIRES(victim->mu);
  // Called before a push while holding current->mu: if the service total
  // is over budget, evicts dormant sessions (LRU first, TryLock only —
  // never waits on a busy session's lock, so no deadlock is possible);
  // returns kResourceExhausted if the total still exceeds the budget.
  // Takes mu_ to total/snapshot the registry — the one place the lock
  // order session->mu -> mu_ occurs (see ARCHITECTURE.md for the table).
  Status EnforceBudget(Session* current)
      SSSJ_REQUIRES(current->mu) SSSJ_EXCLUDES(mu_);

  Options options_;
  // Declared before the registry so it outlives every session's engine.
  LazyThreadPool pool_;

  mutable Mutex mu_;  // guards the registry
  // Live sessions by name. Handles carry their session, so the registry
  // serves only name lookups and whole-service walks.
  std::map<std::string, std::shared_ptr<Session>> sessions_
      SSSJ_GUARDED_BY(mu_);

  // Budget bookkeeping. The clock orders sessions for LRU eviction; the
  // counters feed ServiceStats. All atomic (and mutable where const
  // methods touch them) — no lock protects them.
  mutable std::atomic<uint64_t> activity_clock_{1};
  std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> budget_rejections_{0};
};

}  // namespace sssj

#endif  // SSSJ_CORE_JOIN_SERVICE_H_
