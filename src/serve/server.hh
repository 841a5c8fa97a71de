/**
 * @file
 * The long-lived streaming session server behind `darkside serve`:
 * turns the batch pipeline into per-session incremental decode. Every
 * offered utterance passes the AdmissionController (shed above budget,
 * over the length cap, or past its deadline budget), then runs as one
 * pool task: open a ScoreStream against the shared sharded score
 * cache (scoring pipelined with decode by default, so the first
 * partial waits for one scored chunk rather than the whole
 * utterance), feed the frames chunk by chunk through a Session
 * (partial hypothesis after every chunk), and record chunk/session/
 * time-to-first-partial latency into both the local report and the
 * `serve.*` telemetry namespace. Faults — session deadlines,
 * injected decoder faults, poisoned scores — degrade their session
 * only; healthy sessions decode bit-identically to batch. A circuit
 * breaker trips after K consecutive degraded sessions and half-opens
 * on a cooldown; requestDrain() refuses new offers while in-flight
 * sessions finish. An attached UnitJournal (docs/STORE.md "Run
 * journal") commits every terminal session as a unit and replays every
 * offer whose unit key matches, so a killed run rerun on its journal
 * resumes bit-identically.
 */

#ifndef DARKSIDE_SERVE_SERVER_HH
#define DARKSIDE_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "serve/admission.hh"
#include "serve/session.hh"
#include "system/asr_system.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace darkside {

/** Configuration of one StreamingServer. */
struct ServeConfig
{
    /** Model + selector configuration every session runs
     *  (ExperimentSetup::configFor picks the paper's presets). */
    SystemConfig system;

    /** Frames fed per chunk (0 = the whole utterance in one chunk). */
    std::size_t chunkFrames = 16;

    /**
     * Score chunk k+1 on a per-session prefetch thread while chunk k
     * decodes (docs/SERVING.md "Pipelined scoring"): the first partial
     * waits for one scored chunk instead of the whole utterance.
     * False restores the score-everything-up-front baseline the
     * time-to-first-partial bench compares against. Transcripts are
     * bit-identical either way.
     */
    bool pipelineScoring = true;

    /** Wall budget per session (whole session, checked at every frame
     *  boundary by DecodeWatchdog and estimated against at admission);
     *  0 disables the deadline. */
    double sessionDeadlineSeconds = 0.0;

    /** Session/queue budget and shedding policy. */
    AdmissionConfig admission;

    /** Worker threads of the session pool (0 = run sessions inline on
     *  the offering thread — the deterministic test configuration). */
    std::size_t threads = 4;

    /** Consecutive degraded sessions that trip the circuit breaker
     *  (0 disables the breaker). */
    std::size_t breakerThreshold = 0;

    /** Wall time an open breaker waits before half-opening to admit
     *  one probe session. */
    double breakerCooldownSeconds = 0.05;

    /** Journal key of the configuration a session unit replays under:
     *  system.key() plus chunkFrames. Threads, pipelined scoring and the
     *  admission budget leave a session's result unchanged, so they
     *  stay out and a journal replays at any worker count. */
    std::uint64_t key() const;
};

/** Aggregate serving statistics, valid after drain(). */
struct ServeReport
{
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t chunks = 0;
    std::uint64_t frames = 0;

    /** Shed breakdown; sums (with shedDraining) to `shed`. */
    std::uint64_t shedQueue = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t shedLength = 0;
    std::uint64_t shedBreaker = 0;
    std::uint64_t shedInjected = 0;
    /** Offers refused because requestDrain() had been called. */
    std::uint64_t shedDraining = 0;

    std::uint64_t breakerTrips = 0;
    std::uint64_t breakerHalfOpens = 0;

    /** Sessions replayed from a journal instead of recomputed (subset
     *  of completed+degraded). */
    std::uint64_t resumedSessions = 0;

    /** Wall-clock per advanceChunk call (decode only; scoring runs
     *  ahead of the chunk loop). */
    PercentileTracker chunkLatencyUs;
    /** Wall-clock from admission to session completion (includes
     *  scoring and queueing). */
    PercentileTracker sessionLatencyUs;
    /** Time-to-first-partial: wall-clock from admission to the first
     *  chunk's partial hypothesis — the latency pipelined scoring
     *  attacks (one session entry per session that produced one). */
    PercentileTracker ttfpUs;

    /** First offer to end of drain. */
    double wallSeconds = 0.0;

    double
    sessionsPerSecond() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(completed) / wallSeconds
            : 0.0;
    }

    double
    framesPerSecond() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(frames) / wallSeconds
            : 0.0;
    }
};

/** Terminal outcome of one admitted session. */
struct SessionOutcome
{
    /** Offer order (0-based), the deterministic sort key. */
    std::size_t index = 0;
    std::uint64_t utteranceId = 0;
    bool degraded = false;
    std::string faultCause;
    /** Final transcript (healthy sessions: bit-identical to batch
     *  decode of the same utterance and configuration). */
    std::vector<WordId> words;
    double totalCost = 0.0;
    std::size_t frames = 0;
    std::size_t chunks = 0;
};

/** Final session ledger of a drained serving run, committed once the
 *  drain finished as the journal unit `serve_manifest`. Resume does not
 *  need it (units stand alone); it pins what a clean shutdown looked
 *  like for audits and goldens. */
struct ServeManifest
{
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t resumedSessions = 0;
};

/** The drain manifest a server under `config` committed to `journal`;
 *  an error when absent, corrupt or committed under another key. */
Result<ServeManifest> loadServeManifest(const UnitJournal &journal,
                                        const ServeConfig &config);

/**
 * In-process streaming ASR server. Thread-safe: offers may come from
 * any thread; sessions run on the internal pool.
 */
class StreamingServer
{
  public:
    using SessionOutcome = darkside::SessionOutcome;

    /** Partial-hypothesis consumer, called after every chunk from the
     *  session's worker thread. */
    using PartialCallback =
        std::function<void(std::uint64_t utteranceId,
                           const PartialHypothesis &partial)>;

    /**
     * @param system shared read-only scoring/model state (the score
     *        cache is the only mutable part, and it is thread-safe)
     * @param journal optional run journal: terminal sessions are
     *        committed to it as units `session_<offer index>`, and an
     *        offer whose unit key matches is replayed instead of
     *        recomputed. Must outlive the server.
     */
    StreamingServer(AsrSystem &system, const ServeConfig &config,
                    UnitJournal *journal = nullptr);

    /** Drains in-flight sessions. */
    ~StreamingServer();

    StreamingServer(const StreamingServer &) = delete;
    StreamingServer &operator=(const StreamingServer &) = delete;

    /** Install a partial-hypothesis consumer (before offering). */
    void setPartialCallback(PartialCallback callback);

    /**
     * Offer an utterance as a new session.
     * @return false when it was shed (nothing runs); replayed sessions
     *         return true like freshly admitted ones.
     */
    bool offer(const Utterance &utt);

    /**
     * Stop admitting: every offer from this point on is refused and
     * counted under serve.drain.refused; in-flight sessions finish
     * normally. Non-blocking and async-signal-ish safe (one atomic
     * flag), so it may be called from any thread, including a partial
     * callback running inline on the offering thread when threads==0.
     * Follow with drain() to wait and commit the journal manifest.
     */
    void requestDrain();

    /** True once requestDrain() was called. */
    bool
    draining() const
    {
        return draining_.load(std::memory_order_relaxed);
    }

    /** Block until every admitted session finished. Commits the
     *  drain manifest (once) when a journal is attached. */
    void drain();

    /** Aggregate statistics (call after drain()). */
    ServeReport report() const;

    /** Per-session outcomes sorted by offer order (after drain()). */
    std::vector<SessionOutcome> outcomes() const;

    const ServeConfig &config() const { return config_; }
    const AdmissionController &admission() const { return admission_; }

  private:
    /** Why offer() refused a session (maps onto serve.shed.* /
     *  serve.drain.refused). */
    enum class ShedReason : std::uint8_t {
        Queue,
        Deadline,
        Length,
        Breaker,
        Injected,
        Draining,
    };

    enum class BreakerState : std::uint8_t { Closed, Open, HalfOpen };

    /** Count one refused offer under its cause. Always returns false
     *  so offer() can `return shedOffer(...)`. */
    bool shedOffer(ShedReason reason);

    void runSession(const Utterance &utt, std::size_t index,
                    std::chrono::steady_clock::time_point admitted,
                    bool breakerProbe);

    AsrSystem &system_;
    ServeConfig config_;
    ThreadPool pool_;
    AdmissionController admission_;
    PartialCallback partialCallback_;
    UnitJournal *journal_;

    std::atomic<bool> draining_{false};

    mutable std::mutex statsMutex_;
    ServeReport report_;
    std::vector<SessionOutcome> outcomes_;
    bool started_ = false;
    std::chrono::steady_clock::time_point firstOffer_;
    bool manifestSaved_ = false;

    /** Breaker state, guarded by statsMutex_. */
    BreakerState breaker_ = BreakerState::Closed;
    std::size_t consecutiveDegraded_ = 0;
    std::chrono::steady_clock::time_point breakerOpenedAt_;
    bool breakerProbeInFlight_ = false;

    std::mutex doneMutex_;
    std::condition_variable doneCv_;
    std::size_t inflight_ = 0;
};

} // namespace darkside

#endif // DARKSIDE_SERVE_SERVER_HH
