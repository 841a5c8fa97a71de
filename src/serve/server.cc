#include "serve/server.hh"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>

#include "fault/fault.hh"
#include "system/score_stream.hh"
#include "telemetry/metrics.hh"
#include "telemetry/snapshot.hh"
#include "util/bits.hh"
#include "util/pod_codec.hh"

namespace darkside {

namespace {

/**
 * The serve.* telemetry namespace (docs/METRICS.md). Registered
 * together on first use so a serve snapshot always carries the whole
 * closed family, which is what tools/metrics_check validates. Only the
 * offered count and the drain/journal counters are deterministic — the
 * offered count restates the workload and the drain counters restate
 * durable journal state (like store.*); every other serve metric
 * depends on wall-clock scheduling (which sessions get shed, when
 * deadlines fire), so they are flagged nondeterministic and excluded
 * from deterministic snapshot diffs.
 */
struct ServeMetrics
{
    telemetry::Counter offered;
    telemetry::Counter admitted;
    telemetry::Counter shed;
    telemetry::Counter completed;
    telemetry::Counter degraded;
    telemetry::Counter chunks;
    telemetry::Counter frames;
    telemetry::Counter shedQueue;
    telemetry::Counter shedDeadline;
    telemetry::Counter shedLength;
    telemetry::Counter shedBreaker;
    telemetry::Counter shedInjected;
    telemetry::Counter breakerTrips;
    telemetry::Counter breakerHalfOpens;
    telemetry::Counter drainRequested;
    telemetry::Counter drainRefused;
    telemetry::Counter drainCommittedUnits;
    telemetry::Counter drainResumedSessions;
    telemetry::Histogram chunkLatencyUs;
    telemetry::Histogram sessionLatencyUs;
    telemetry::Histogram ttfpUs;

    static const ServeMetrics &
    get()
    {
        static const ServeMetrics m = [] {
            auto &reg = telemetry::MetricRegistry::global();
            ServeMetrics s{
                reg.counter("serve.sessions.offered", "sessions"),
                reg.counter("serve.sessions.admitted", "sessions",
                            false),
                reg.counter("serve.sessions.shed", "sessions", false),
                reg.counter("serve.sessions.completed", "sessions",
                            false),
                reg.counter("serve.sessions.degraded", "sessions",
                            false),
                reg.counter("serve.chunks", "chunks", false),
                reg.counter("serve.frames", "frames", false),
                reg.counter("serve.shed.queue", "sessions", false),
                reg.counter("serve.shed.deadline", "sessions", false),
                reg.counter("serve.shed.length", "sessions", false),
                reg.counter("serve.shed.breaker", "sessions", false),
                reg.counter("serve.shed.injected", "sessions", false),
                reg.counter("serve.breaker.trips", "trips", false),
                reg.counter("serve.breaker.half_opens", "probes",
                            false),
                reg.counter("serve.drain.requested", "drains"),
                reg.counter("serve.drain.refused", "sessions"),
                reg.counter("serve.drain.committed_units", "units"),
                reg.counter("serve.drain.resumed_sessions", "sessions"),
                reg.histogram("serve.chunk_latency_us", "us",
                              {0.0, 20000.0, 50}, false),
                reg.histogram("serve.session_latency_us", "us",
                              {0.0, 2000000.0, 50}, false),
                reg.histogram("serve.ttfp_us", "us",
                              {0.0, 2000000.0, 50}, false),
            };
            return s;
        }();
        return m;
    }
};

double
elapsedUs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/**
 * The per-session slice of serve telemetry that a journal unit carries:
 * exactly the session-ledger counters this one terminal session
 * contributed. Chunk/frame counts and latency histograms are NOT in
 * the delta — replay does no decoding, so replaying them would break
 * the `chunk_latency_us count == serve.chunks` identity; the replayed
 * report gets them from the stored outcome instead.
 */
telemetry::Snapshot
sessionDelta(bool degraded)
{
    telemetry::Snapshot delta;
    delta.counters.push_back(
        {"serve.sessions.admitted", "sessions", false, 1});
    delta.counters.push_back(
        {degraded ? "serve.sessions.degraded"
                  : "serve.sessions.completed",
         "sessions", false, 1});
    delta.sortByName();
    return delta;
}

// --- journal units: one per terminal session, plus the manifest -------

constexpr const char *kManifestUnit = "serve_manifest";

std::string
sessionUnitId(std::size_t index)
{
    return "session_" + std::to_string(index);
}

/** Key binding a session unit to its exact inputs: the configuration
 *  key plus the utterance (id, length) and its offer index. */
std::uint64_t
sessionKey(const ServeConfig &config, const Utterance &utt,
           std::size_t index)
{
    std::uint64_t h = config.key();
    h = mix64(h ^ utt.id);
    h = mix64(h ^ utt.frames.size());
    return mix64(h ^ index);
}

/** A session's record; its offer index and utterance id are bound by
 *  the unit key, so they are not stored. */
std::string
encodeSession(const SessionOutcome &o)
{
    std::string out;
    appendPod<std::uint8_t>(out, o.degraded ? 1 : 0);
    appendString(out, o.faultCause);
    appendPod<std::uint64_t>(out, o.frames);
    appendPod<std::uint64_t>(out, o.chunks);
    appendPod<double>(out, o.totalCost);
    appendPod<std::uint64_t>(out, o.words.size());
    for (const WordId w : o.words)
        appendPod<std::uint32_t>(out, w);
    return out;
}

Status
decodeSession(const std::string &record, SessionOutcome &o)
{
    std::size_t offset = 0;
    std::uint8_t degraded = 0;
    std::uint64_t frames = 0, chunks = 0, word_count = 0;
    if (!consumePod(record, offset, degraded) || degraded > 1 ||
        !consumeString(record, offset, o.faultCause) ||
        !consumePod(record, offset, frames) ||
        !consumePod(record, offset, chunks) ||
        !consumePod(record, offset, o.totalCost) ||
        !consumePod(record, offset, word_count) ||
        !consumePodVector(record, offset, word_count, o.words) ||
        offset != record.size()) {
        return Status::error("malformed session record");
    }
    o.degraded = degraded != 0;
    o.frames = static_cast<std::size_t>(frames);
    o.chunks = static_cast<std::size_t>(chunks);
    return Status::ok();
}

} // namespace

std::uint64_t
ServeConfig::key() const
{
    return mix64(system.key() ^ chunkFrames);
}

Result<ServeManifest>
loadServeManifest(const UnitJournal &journal, const ServeConfig &config)
{
    ServeManifest m;
    const Status loaded = journal.loadUnit(
        kManifestUnit, config.key(), [&m](const std::string &record) {
            std::size_t offset = 0;
            for (std::uint64_t *field :
                 {&m.offered, &m.admitted, &m.shed, &m.completed,
                  &m.degraded, &m.resumedSessions}) {
                if (!consumePod(record, offset, *field))
                    return Status::error("malformed serve manifest");
            }
            return offset == record.size()
                ? Status::ok()
                : Status::error("malformed serve manifest");
        });
    if (!loaded)
        return loaded;
    return m;
}

StreamingServer::StreamingServer(AsrSystem &system,
                                 const ServeConfig &config,
                                 UnitJournal *journal)
    : system_(system), config_(config), pool_(config.threads),
      admission_(config.admission, &pool_), journal_(journal)
{
    ServeMetrics::get(); // register the namespace up front
}

StreamingServer::~StreamingServer()
{
    drain();
}

void
StreamingServer::setPartialCallback(PartialCallback callback)
{
    partialCallback_ = std::move(callback);
}

bool
StreamingServer::shedOffer(ShedReason reason)
{
    const auto &metrics = ServeMetrics::get();
    metrics.shed.add(1);
    std::lock_guard<std::mutex> lock(statsMutex_);
    ++report_.shed;
    switch (reason) {
      case ShedReason::Queue:
        metrics.shedQueue.add(1);
        ++report_.shedQueue;
        break;
      case ShedReason::Deadline:
        metrics.shedDeadline.add(1);
        ++report_.shedDeadline;
        break;
      case ShedReason::Length:
        metrics.shedLength.add(1);
        ++report_.shedLength;
        break;
      case ShedReason::Breaker:
        metrics.shedBreaker.add(1);
        ++report_.shedBreaker;
        break;
      case ShedReason::Injected:
        metrics.shedInjected.add(1);
        ++report_.shedInjected;
        break;
      case ShedReason::Draining:
        metrics.drainRefused.add(1);
        ++report_.shedDraining;
        break;
    }
    return false;
}

bool
StreamingServer::offer(const Utterance &utt)
{
    const auto &metrics = ServeMetrics::get();
    const auto now = std::chrono::steady_clock::now();
    std::size_t index;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        if (!started_) {
            started_ = true;
            firstOffer_ = now;
        }
        index = report_.offered++;
    }
    metrics.offered.add(1);

    if (journal_) {
        // Replay path: a journal unit whose key matches substitutes
        // for the whole session. loadUnit applied its telemetry delta,
        // so only the local report is updated here; the chunk/frame
        // counters and latency histograms stay untouched (no decoding
        // happened).
        SessionOutcome replayed;
        replayed.index = index;
        replayed.utteranceId = utt.id;
        if (journal_->loadUnit(sessionUnitId(index),
                               sessionKey(config_, utt, index),
                               [&replayed](const std::string &record) {
                                   return decodeSession(record,
                                                        replayed);
                               })) {
            metrics.drainResumedSessions.add(1);
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++report_.admitted;
            if (replayed.degraded)
                ++report_.degraded;
            else
                ++report_.completed;
            report_.chunks += replayed.chunks;
            report_.frames += replayed.frames;
            ++report_.resumedSessions;
            outcomes_.push_back(std::move(replayed));
            return true;
        }
    }

    if (draining())
        return shedOffer(ShedReason::Draining);

    if (FaultInjector::global().trigger("serve.admit_drop", utt.id))
        return shedOffer(ShedReason::Injected);

    bool breakerProbe = false;
    if (config_.breakerThreshold != 0) {
        bool rejected = false;
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            if (breaker_ == BreakerState::Open &&
                std::chrono::duration<double>(now - breakerOpenedAt_)
                        .count() >= config_.breakerCooldownSeconds) {
                breaker_ = BreakerState::HalfOpen;
                breakerProbeInFlight_ = false;
                ++report_.breakerHalfOpens;
                metrics.breakerHalfOpens.add(1);
            }
            if (breaker_ == BreakerState::Open ||
                (breaker_ == BreakerState::HalfOpen &&
                 breakerProbeInFlight_)) {
                rejected = true;
            } else if (breaker_ == BreakerState::HalfOpen) {
                breakerProbeInFlight_ = true;
                breakerProbe = true;
            }
        }
        if (rejected)
            return shedOffer(ShedReason::Breaker);
    }

    const AdmitDecision decision = admission_.admit(
        OfferProfile{utt.frames.size(), config_.sessionDeadlineSeconds});
    if (decision != AdmitDecision::Admit) {
        if (breakerProbe) {
            // The half-open probe slot was claimed but admission shed
            // the offer; free the slot or the breaker never closes.
            std::lock_guard<std::mutex> lock(statsMutex_);
            breakerProbeInFlight_ = false;
        }
        switch (decision) {
          case AdmitDecision::ShedLength:
            return shedOffer(ShedReason::Length);
          case AdmitDecision::ShedDeadline:
            return shedOffer(ShedReason::Deadline);
          default:
            return shedOffer(ShedReason::Queue);
        }
    }

    metrics.admitted.add(1);
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++report_.admitted;
    }
    {
        std::lock_guard<std::mutex> lock(doneMutex_);
        ++inflight_;
    }
    pool_.submit([this, utt, index, now, breakerProbe] {
        runSession(utt, index, now, breakerProbe);
        // Notify under the lock: once drain() sees inflight_ == 0 the
        // destructor may destroy doneCv_ (before the pool joins this
        // worker), so the notify must finish before drain() can wake.
        std::lock_guard<std::mutex> lock(doneMutex_);
        --inflight_;
        doneCv_.notify_all();
    });
    return true;
}

void
StreamingServer::runSession(
    const Utterance &utt, std::size_t index,
    std::chrono::steady_clock::time_point admitted, bool breakerProbe)
{
    const auto &metrics = ServeMetrics::get();
    SessionOutcome outcome;
    outcome.index = index;
    outcome.utteranceId = utt.id;

    try {
        // DNN stage through the shared sharded score cache. Pipelined
        // (the default), a per-session prefetch thread scores chunk
        // k+1 while this worker decodes chunk k, so the first partial
        // waits for one scored chunk, not the whole utterance; the
        // upfront baseline scores everything before the chunk loop.
        // Either way the chunk loop times the streaming decode alone,
        // and finish() below commits the scores to the same caches the
        // batch path fills.
        const auto stream =
            system_.openScoreStream(utt, config_.system.prune);
        if (stream->poisoned()) {
            throw FaultError("inference.scores", FaultKind::NanScores,
                             utt.id);
        }

        const std::size_t frames = stream->frameCount();
        const std::size_t chunk =
            config_.chunkFrames ? config_.chunkFrames : frames;
        if (config_.pipelineScoring)
            stream->startPrefetch(chunk);
        else
            stream->ensureScored(frames);

        Session session(system_.fst(), config_.system.beam,
                        system_.makeSelector(config_.system), utt.id,
                        config_.sessionDeadlineSeconds);

        std::size_t decoded = 0;
        bool first_chunk = true;
        for (std::size_t begin = 0;
             begin < frames && !session.dead(); begin += chunk) {
            const std::size_t end = std::min(frames, begin + chunk);
            // Blocks on the prefetch thread (pipelined) or scores the
            // window inline; rows [0, end) are final afterwards.
            stream->ensureScored(end);
            const auto t0 = std::chrono::steady_clock::now();
            const PartialHypothesis partial =
                session.advanceChunk(stream->scores(), begin, end);
            const double us = elapsedUs(t0);

            metrics.chunks.add(1);
            metrics.frames.add(end - begin);
            metrics.chunkLatencyUs.observe(us);
            admission_.recordChunkLatency(us, end - begin);
            decoded += end - begin;
            const bool record_ttfp = first_chunk;
            double ttfp_us = 0.0;
            if (first_chunk) {
                first_chunk = false;
                ttfp_us = elapsedUs(admitted);
                metrics.ttfpUs.observe(ttfp_us);
            }
            {
                std::lock_guard<std::mutex> lock(statsMutex_);
                ++report_.chunks;
                report_.frames += end - begin;
                report_.chunkLatencyUs.add(us);
                if (record_ttfp)
                    report_.ttfpUs.add(ttfp_us);
            }
            if (partialCallback_)
                partialCallback_(utt.id, partial);
        }

        // Commit the completed scores to the LRU + store (scores any
        // tail a dead session never decoded, as the batch path would
        // have). A NaN discovered here degrades the session, exactly
        // like the batch finite() check.
        stream->finish();

        SessionResult result = session.finish();
        outcome.degraded = result.degraded;
        outcome.faultCause = result.faultCause;
        outcome.chunks = result.chunks;
        // Frames actually fed through the decoder (a degraded session
        // stops at its fault's chunk boundary) — what replay must add
        // back to the aggregate frame count.
        outcome.frames = decoded;
        if (!result.degraded) {
            outcome.words = std::move(result.decode.words);
            outcome.totalCost = result.decode.totalCost;
        }
    } catch (const FaultError &e) {
        // Per-session isolation boundary: scoring faults and injected
        // non-timeout decoder faults land here; the session degrades,
        // its neighbours never notice.
        outcome.degraded = true;
        outcome.faultCause = e.what();
    }

    if (journal_) {
        // Journal the terminal outcome before it is published: a crash
        // after this line replays the session; a crash before it
        // recomputes it. Either way the resumed ledger matches.
        const std::string unit_id = sessionUnitId(index);
        if (journal_->saveUnit(unit_id, sessionKey(config_, utt, index),
                               encodeSession(outcome),
                               sessionDelta(outcome.degraded))) {
            metrics.drainCommittedUnits.add(1);
            // Torn-commit model: the rename landed but the page cache
            // lied — half the frame never reached the disk. The writer
            // believed the commit succeeded; the next load fails
            // verification and quarantines the unit.
            const std::string name = UnitJournal::unitFileName(unit_id);
            if (FaultInjector::global().trigger("serve.checkpoint_torn",
                                                faultKey(name))) {
                std::error_code ec;
                const std::string path = journal_->store().pathOf(name);
                const auto size = std::filesystem::file_size(path, ec);
                if (!ec)
                    std::filesystem::resize_file(path, size / 2, ec);
            }
        }
    }

    const double session_us = elapsedUs(admitted);
    metrics.sessionLatencyUs.observe(session_us);
    if (outcome.degraded) {
        metrics.degraded.add(1);
        FaultInjector::global().noteDegraded();
    } else {
        metrics.completed.add(1);
    }
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        report_.sessionLatencyUs.add(session_us);
        if (outcome.degraded)
            ++report_.degraded;
        else
            ++report_.completed;
        if (config_.breakerThreshold != 0) {
            if (outcome.degraded) {
                ++consecutiveDegraded_;
                const bool trip =
                    breaker_ == BreakerState::HalfOpen ||
                    (breaker_ == BreakerState::Closed &&
                     consecutiveDegraded_ >= config_.breakerThreshold);
                if (trip) {
                    breaker_ = BreakerState::Open;
                    breakerOpenedAt_ = std::chrono::steady_clock::now();
                    breakerProbeInFlight_ = false;
                    ++report_.breakerTrips;
                    metrics.breakerTrips.add(1);
                }
            } else {
                consecutiveDegraded_ = 0;
                if (breaker_ == BreakerState::HalfOpen) {
                    breaker_ = BreakerState::Closed;
                    breakerProbeInFlight_ = false;
                }
            }
            if (breakerProbe && breaker_ == BreakerState::HalfOpen)
                breakerProbeInFlight_ = false;
        }
        outcomes_.push_back(std::move(outcome));
    }
    admission_.release();
}

void
StreamingServer::requestDrain()
{
    // One relaxed atomic exchange: safe from any thread, including a
    // partial callback running inline on the offering thread when the
    // pool has no workers (threads 0/1).
    if (!draining_.exchange(true, std::memory_order_relaxed))
        ServeMetrics::get().drainRequested.add(1);
}

void
StreamingServer::drain()
{
    {
        std::unique_lock<std::mutex> lock(doneMutex_);
        doneCv_.wait(lock, [this] { return inflight_ == 0; });
    }
    std::lock_guard<std::mutex> lock(statsMutex_);
    if (started_) {
        report_.wallSeconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  firstOffer_)
                                  .count();
    }
    if (journal_ && started_ && !manifestSaved_) {
        std::string record;
        for (const std::uint64_t field :
             {report_.offered, report_.admitted, report_.shed,
              report_.completed, report_.degraded,
              report_.resumedSessions}) {
            appendPod(record, field);
        }
        // Best effort: a failed manifest commit only loses the audit
        // summary, never resumability (units stand alone).
        if (journal_->saveUnit(kManifestUnit, config_.key(), record,
                               telemetry::Snapshot{}))
            manifestSaved_ = true;
    }
}

ServeReport
StreamingServer::report() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return report_;
}

std::vector<SessionOutcome>
StreamingServer::outcomes() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    std::vector<SessionOutcome> sorted = outcomes_;
    std::sort(sorted.begin(), sorted.end(),
              [](const SessionOutcome &a, const SessionOutcome &b) {
                  return a.index < b.index;
              });
    return sorted;
}

} // namespace darkside
