/**
 * @file
 * Tests of the serving resilience layer (docs/SERVING.md): the
 * ServeCheckpoint session journal (unit/manifest round trips, key
 * binding), drain semantics under inline ThreadPool(0|1) execution,
 * bit-identical resume of an interrupted run at several thread counts,
 * torn-unit quarantine and recompute, the serve-layer fault probes
 * (serve.admit_drop, serve.chunk_stall, serve.checkpoint_torn), the
 * circuit breaker's trip/half-open/reclose cycle, and the golden
 * baseline pinning a drained-and-resumed run's aggregates
 * (tests/golden/serve_resume.json; regenerate an intentional change
 * with DS_GOLDEN_REGENERATE=1 ./build/tests/serve_resilience_test).
 * The admission/shedding policy itself is covered in serve_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "mini_setup.hh"
#include "serve/serve_bench.hh"
#include "serve/serve_checkpoint.hh"
#include "serve/server.hh"
#include "serve/traffic.hh"
#include "system/defaults.hh"
#include "telemetry/metrics.hh"
#include "telemetry/snapshot.hh"
#include "util/json.hh"

namespace darkside {
namespace {

#ifndef DS_GOLDEN_DIR
#error "DS_GOLDEN_DIR must point at tests/golden"
#endif

const char *const kResumeGoldenPath =
    DS_GOLDEN_DIR "/serve_resume.json";

/** One trained mini context shared by every test in this binary. */
ExperimentContext &
resilienceContext()
{
    static ExperimentContext ctx(miniSetup());
    return ctx;
}

/** Scratch run directory, wiped on entry and exit. */
struct TempRunDir
{
    TempRunDir()
    {
        static int counter = 0;
        path = (std::filesystem::temp_directory_path() /
                ("darkside_serve_resilience_" +
                 std::to_string(++counter)))
                   .string();
        std::filesystem::remove_all(path);
    }
    ~TempRunDir() { std::filesystem::remove_all(path); }
    std::string path;
};

/** Server configuration every resilience test starts from: inline
 *  deterministic execution, budgets that admit the whole trace. */
ServeConfig
resilienceConfig()
{
    auto &ctx = resilienceContext();
    ServeConfig serve;
    serve.system =
        ctx.setup.configFor(SearchMode::NBestHash, PruneLevel::P90);
    serve.chunkFrames = 8;
    serve.threads = 0;
    serve.admission.maxSessions = 64;
    serve.admission.maxQueueDepth = 100000;
    return serve;
}

std::vector<TrafficEvent>
makeEvents(std::size_t sessions, std::uint64_t seed = 4242)
{
    TrafficConfig traffic;
    traffic.sessions = sessions;
    traffic.maxLengthMultiple = 2;
    traffic.seed = seed;
    SyntheticTrafficGenerator generator(resilienceContext().testSet,
                                        traffic);
    return generator.generate();
}

bool
ledgerHolds(const ServeReport &r)
{
    return r.admitted + r.shed == r.offered &&
        r.completed + r.degraded == r.admitted &&
        r.shedQueue + r.shedDeadline + r.shedLength + r.shedBreaker +
            r.shedInjected + r.shedDraining ==
        r.shed;
}

/** Offer every event and drain; returns the outcome dump. */
std::string
runAll(StreamingServer &server, const std::vector<TrafficEvent> &events)
{
    for (const auto &event : events)
        server.offer(event.utterance);
    server.drain();
    return serveOutcomesText(server.report(), server.outcomes());
}

// ---------------------------------------------------------------------
// ServeCheckpoint
// ---------------------------------------------------------------------

TEST(ServeCheckpoint, SessionUnitRoundTripsAndRejectsForeignKey)
{
    TempRunDir dir;
    ServeCheckpoint checkpoint(dir.path);

    SessionOutcome out;
    out.index = 3;
    out.utteranceId = 42;
    out.degraded = true;
    out.faultCause = "fault 'decoder.decode' kind Timeout key 42";
    out.words = {4, 8, 15};
    out.totalCost = 12.5;
    out.frames = 80;
    out.chunks = 5;

    telemetry::Snapshot delta;
    delta.counters.push_back(
        {"serve.sessions.admitted", "sessions", false, 1});
    delta.counters.push_back(
        {"serve.sessions.degraded", "sessions", false, 1});

    EXPECT_FALSE(checkpoint.hasSession(3));
    ASSERT_TRUE(checkpoint.saveSession(0x1234, out, delta).isOk());
    EXPECT_TRUE(checkpoint.hasSession(3));

    auto loaded = checkpoint.loadSession(3, 0x1234);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->index, out.index);
    EXPECT_EQ(loaded->utteranceId, out.utteranceId);
    EXPECT_EQ(loaded->degraded, out.degraded);
    EXPECT_EQ(loaded->faultCause, out.faultCause);
    EXPECT_EQ(loaded->words, out.words);
    EXPECT_EQ(loaded->totalCost, out.totalCost);
    EXPECT_EQ(loaded->frames, out.frames);
    EXPECT_EQ(loaded->chunks, out.chunks);

    // A unit bound to a different session key must miss (caller
    // recomputes), and an absent index must miss.
    EXPECT_FALSE(checkpoint.loadSession(3, 0x9999).has_value());
    EXPECT_FALSE(checkpoint.loadSession(4, 0x1234).has_value());

    ServeManifest manifest;
    manifest.configKey = 7;
    manifest.offered = 10;
    manifest.admitted = 8;
    manifest.shed = 2;
    manifest.completed = 7;
    manifest.degraded = 1;
    manifest.resumedSessions = 3;
    EXPECT_FALSE(checkpoint.hasManifest());
    ASSERT_TRUE(checkpoint.saveManifest(manifest).isOk());
    ASSERT_TRUE(checkpoint.hasManifest());
    auto reloaded = checkpoint.loadManifest();
    ASSERT_TRUE(reloaded.isOk());
    EXPECT_EQ(reloaded.value().configKey, manifest.configKey);
    EXPECT_EQ(reloaded.value().offered, manifest.offered);
    EXPECT_EQ(reloaded.value().admitted, manifest.admitted);
    EXPECT_EQ(reloaded.value().shed, manifest.shed);
    EXPECT_EQ(reloaded.value().completed, manifest.completed);
    EXPECT_EQ(reloaded.value().degraded, manifest.degraded);
    EXPECT_EQ(reloaded.value().resumedSessions,
              manifest.resumedSessions);
}

TEST(ServeCheckpoint, ConfigKeySeparatesConfigurations)
{
    const ServeConfig base = resilienceConfig();
    ServeConfig chunked = base;
    chunked.chunkFrames = 4;
    ServeConfig beamed = base;
    beamed.system.beam += 1.0f;

    const std::uint64_t key = ServeCheckpoint::configKeyOf(base);
    EXPECT_EQ(key, ServeCheckpoint::configKeyOf(base));
    EXPECT_NE(key, ServeCheckpoint::configKeyOf(chunked));
    EXPECT_NE(key, ServeCheckpoint::configKeyOf(beamed));

    // resume/threads do not change what a session computes, so they
    // must not change the key (a resumed run reuses the journal).
    ServeConfig resumed = base;
    resumed.resume = true;
    resumed.threads = 4;
    EXPECT_EQ(key, ServeCheckpoint::configKeyOf(resumed));
}

// ---------------------------------------------------------------------
// Drain under inline execution
// ---------------------------------------------------------------------

TEST(ServeResilience, DrainFromInlinePartialCallbackRefusesLateOffers)
{
    // threads == 0 runs the whole session inline inside offer(), so
    // requestDrain() here executes on the offering thread, in the
    // middle of the offer() call stack — the regression this test
    // pins is that this must neither deadlock nor corrupt the ledger.
    auto &ctx = resilienceContext();
    const auto events = makeEvents(4);
    StreamingServer server(ctx.system, resilienceConfig());
    server.setPartialCallback(
        [&server](std::uint64_t, const PartialHypothesis &) {
            server.requestDrain();
        });

    EXPECT_TRUE(server.offer(events[0].utterance));
    EXPECT_TRUE(server.draining());
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_FALSE(server.offer(events[i].utterance));
    server.drain();

    const ServeReport r = server.report();
    EXPECT_TRUE(ledgerHolds(r));
    EXPECT_EQ(r.offered, 4u);
    EXPECT_EQ(r.admitted, 1u);
    EXPECT_EQ(r.completed, 1u);
    EXPECT_EQ(r.shedDraining, 3u);
    EXPECT_EQ(server.outcomes().size(), 1u);
}

TEST(ServeResilience, DrainWithSingleWorkerFinishesInflightSessions)
{
    auto &ctx = resilienceContext();
    const auto events = makeEvents(4);
    ServeConfig serve = resilienceConfig();
    serve.threads = 1;
    StreamingServer server(ctx.system, serve);

    EXPECT_TRUE(server.offer(events[0].utterance));
    EXPECT_TRUE(server.offer(events[1].utterance));
    server.requestDrain();
    EXPECT_FALSE(server.offer(events[2].utterance));
    EXPECT_FALSE(server.offer(events[3].utterance));
    server.drain();

    const ServeReport r = server.report();
    EXPECT_TRUE(ledgerHolds(r));
    EXPECT_EQ(r.offered, 4u);
    EXPECT_EQ(r.admitted, 2u);
    EXPECT_EQ(r.completed + r.degraded, 2u);
    EXPECT_EQ(r.shedDraining, 2u);
}

// ---------------------------------------------------------------------
// Checkpointed resume
// ---------------------------------------------------------------------

TEST(ServeResilience, ResumeReproducesInterruptedRunAtAnyThreadCount)
{
    auto &ctx = resilienceContext();
    const auto events = makeEvents(6);
    const ServeConfig serve = resilienceConfig();

    // Uninterrupted reference, no journal.
    std::string reference;
    {
        StreamingServer server(ctx.system, serve);
        reference = runAll(server, events);
    }

    // "Killed" run: only half the trace reaches the journal.
    TempRunDir dir;
    ServeCheckpoint checkpoint(dir.path);
    {
        StreamingServer server(ctx.system, serve, &checkpoint);
        for (std::size_t i = 0; i < events.size() / 2; ++i)
            server.offer(events[i].utterance);
        server.drain();
    }

    // Resume replays the journaled half and recomputes the rest —
    // byte-identical to the reference at every thread count. The
    // first resume journals the recomputed sessions too, so later
    // resumes replay the full trace.
    bool first = true;
    for (std::size_t threads : {0u, 2u, 4u}) {
        ServeConfig resumeConfig = serve;
        resumeConfig.resume = true;
        resumeConfig.threads = threads;
        StreamingServer server(ctx.system, resumeConfig, &checkpoint);
        EXPECT_EQ(runAll(server, events), reference)
            << "threads=" << threads;
        const ServeReport r = server.report();
        EXPECT_TRUE(ledgerHolds(r)) << "threads=" << threads;
        EXPECT_EQ(r.resumedSessions,
                  first ? events.size() / 2 : events.size())
            << "threads=" << threads;
        first = false;
    }
}

TEST(ServeResilience, TornUnitQuarantinesAndRecomputes)
{
    auto &ctx = resilienceContext();
    const auto events = makeEvents(4);
    const ServeConfig serve = resilienceConfig();

    TempRunDir dir;
    ServeCheckpoint checkpoint(dir.path);
    std::string reference;
    {
        StreamingServer server(ctx.system, serve, &checkpoint);
        reference = runAll(server, events);
    }

    // Tear one committed unit in place, the way a crash mid-writeback
    // would: the frame no longer verifies, so resume must quarantine
    // it and recompute that session instead of trusting it.
    const std::string torn = checkpoint.store().pathOf(
        ServeCheckpoint::sessionUnitName(1));
    const auto size = std::filesystem::file_size(torn);
    std::filesystem::resize_file(torn, size / 2);

    ServeConfig resumeConfig = serve;
    resumeConfig.resume = true;
    StreamingServer server(ctx.system, resumeConfig, &checkpoint);
    EXPECT_EQ(runAll(server, events), reference);
    const ServeReport r = server.report();
    EXPECT_TRUE(ledgerHolds(r));
    EXPECT_EQ(r.resumedSessions, events.size() - 1);
    // The recomputed session was re-journaled whole.
    EXPECT_TRUE(checkpoint.hasSession(1));
    EXPECT_EQ(std::filesystem::file_size(torn), size);
}

TEST(ServeResilience, UnitWhoseDeltaDisagreesWithTheRegistryRecomputes)
{
    auto &ctx = resilienceContext();
    const auto events = makeEvents(4);
    const ServeConfig serve = resilienceConfig();

    TempRunDir dir;
    ServeCheckpoint checkpoint(dir.path);
    std::string reference;
    {
        StreamingServer server(ctx.system, serve, &checkpoint);
        reference = runAll(server, events);
    }

    // Session 1's unit as a build registering the session ledger in
    // another unit would have written it: a same-length edit inside
    // its delta, recommitted through the store so it verifies.
    const std::string name = ServeCheckpoint::sessionUnitName(1);
    auto payload =
        checkpoint.store().read(name, ServeCheckpoint::kSessionKind);
    ASSERT_TRUE(payload.isOk()) << payload.message();
    std::string edited = payload.value();
    const std::string unit =
        "\"name\": \"serve.sessions.completed\", \"unit\": ";
    const auto at = edited.find(unit + "\"sessions\"");
    ASSERT_NE(at, std::string::npos);
    edited.replace(at, unit.size() + 10, unit + "\"sessionz\"");
    ASSERT_TRUE(checkpoint.store()
                    .write(name, ServeCheckpoint::kSessionKind, edited)
                    .isOk());

    const auto resumedCounter = [] {
        const auto snap = telemetry::MetricRegistry::global().snapshot();
        return snap.findCounter("serve.drain.resumed_sessions")->value;
    };
    const std::uint64_t resumed_before = resumedCounter();
    ServeConfig resumeConfig = serve;
    resumeConfig.resume = true;
    StreamingServer server(ctx.system, resumeConfig, &checkpoint);
    EXPECT_EQ(runAll(server, events), reference);
    const ServeReport r = server.report();
    EXPECT_TRUE(ledgerHolds(r));
    EXPECT_EQ(r.resumedSessions, events.size() - 1);
    EXPECT_EQ(resumedCounter(), resumed_before + events.size() - 1);
}

// ---------------------------------------------------------------------
// Serve-layer fault probes
// ---------------------------------------------------------------------

TEST(ServeResilience, AdmitDropProbeShedsBeforeAdmission)
{
    auto &ctx = resilienceContext();
    const auto events = makeEvents(4);

    FaultPlan plan;
    plan.seed = 1;
    plan.rules.push_back({"serve.admit_drop", FaultKind::AllocFail,
                          {events[2].utterance.id}, 0, 0, 0.0, 0});
    ScopedFaultPlan armed(std::move(plan));

    StreamingServer server(ctx.system, resilienceConfig());
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(server.offer(events[i].utterance), i != 2);
    server.drain();

    const ServeReport r = server.report();
    EXPECT_TRUE(ledgerHolds(r));
    EXPECT_EQ(r.shedInjected, 1u);
    EXPECT_EQ(r.admitted, 3u);
    for (const auto &outcome : server.outcomes())
        EXPECT_NE(outcome.index, 2u);
}

TEST(ServeResilience, ChunkStallDegradesOnlyItsSession)
{
    auto &ctx = resilienceContext();
    const auto events = makeEvents(4);

    FaultPlan plan;
    plan.seed = 1;
    plan.rules.push_back({"serve.chunk_stall", FaultKind::Timeout,
                          {events[1].utterance.id}, 0, 0, 0.0, 0});
    ScopedFaultPlan armed(std::move(plan));

    StreamingServer server(ctx.system, resilienceConfig());
    for (const auto &event : events)
        EXPECT_TRUE(server.offer(event.utterance));
    server.drain();

    const ServeReport r = server.report();
    EXPECT_TRUE(ledgerHolds(r));
    EXPECT_EQ(r.degraded, 1u);
    EXPECT_EQ(r.completed, 3u);
    const auto outcomes = server.outcomes();
    ASSERT_EQ(outcomes.size(), 4u);
    for (const auto &outcome : outcomes) {
        EXPECT_EQ(outcome.degraded, outcome.index == 1);
        if (outcome.degraded) {
            EXPECT_NE(
                outcome.faultCause.find("serve.chunk_stall"),
                std::string::npos);
        }
    }
}

TEST(ServeResilience, CheckpointTornProbeQuarantinesOnResume)
{
    auto &ctx = resilienceContext();
    const auto events = makeEvents(4);
    const ServeConfig serve = resilienceConfig();

    TempRunDir dir;
    ServeCheckpoint checkpoint(dir.path);
    {
        // Tear exactly the commit of offer index 0 — the probe is
        // keyed on the hash of the unit's store-relative name.
        FaultPlan plan;
        plan.seed = 1;
        plan.rules.push_back(
            {"serve.checkpoint_torn", FaultKind::IoError,
             {faultKey(ServeCheckpoint::sessionUnitName(0))}, 0, 0,
             0.0, 0});
        ScopedFaultPlan armed(std::move(plan));
        StreamingServer server(ctx.system, serve, &checkpoint);
        runAll(server, events);
    }

    // Reference for comparison: the same trace, no journal.
    std::string reference;
    {
        StreamingServer server(ctx.system, serve);
        reference = runAll(server, events);
    }

    // Plan disarmed: the resume quarantines the torn unit, recomputes
    // that session, and the re-commit stays whole.
    ServeConfig resumeConfig = serve;
    resumeConfig.resume = true;
    StreamingServer server(ctx.system, resumeConfig, &checkpoint);
    EXPECT_EQ(runAll(server, events), reference);
    const ServeReport r = server.report();
    EXPECT_TRUE(ledgerHolds(r));
    EXPECT_EQ(r.resumedSessions, events.size() - 1);
    EXPECT_TRUE(checkpoint.hasSession(0));
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

TEST(ServeResilience, CircuitBreakerTripsAfterConsecutiveDegradations)
{
    auto &ctx = resilienceContext();
    const auto events = makeEvents(6);
    ServeConfig serve = resilienceConfig();
    serve.breakerThreshold = 2;
    serve.breakerCooldownSeconds = 1000.0;

    // Degrade every admitted session (the decode probe fires on every
    // key with every=1, phase=0).
    FaultPlan plan;
    plan.seed = 1;
    plan.rules.push_back(
        {"decoder.decode", FaultKind::Timeout, {}, 1, 0, 0.0, 0});
    ScopedFaultPlan armed(std::move(plan));

    StreamingServer server(ctx.system, serve);
    for (const auto &event : events)
        server.offer(event.utterance);
    server.drain();

    const ServeReport r = server.report();
    EXPECT_TRUE(ledgerHolds(r));
    EXPECT_EQ(r.admitted, 2u);
    EXPECT_EQ(r.degraded, 2u);
    EXPECT_EQ(r.breakerTrips, 1u);
    EXPECT_EQ(r.breakerHalfOpens, 0u);
    EXPECT_EQ(r.shedBreaker, 4u);
}

TEST(ServeResilience, CircuitBreakerHalfOpensAndRecloses)
{
    auto &ctx = resilienceContext();
    const auto events = makeEvents(4);
    ServeConfig serve = resilienceConfig();
    serve.breakerThreshold = 2;
    serve.breakerCooldownSeconds = 0.0;

    StreamingServer server(ctx.system, serve);
    {
        FaultPlan plan;
        plan.seed = 1;
        plan.rules.push_back(
            {"decoder.decode", FaultKind::Timeout, {}, 1, 0, 0.0, 0});
        FaultInjector::global().arm(std::move(plan));
    }
    // Two degraded sessions trip the breaker...
    EXPECT_TRUE(server.offer(events[0].utterance));
    EXPECT_TRUE(server.offer(events[1].utterance));
    FaultInjector::global().disarm();

    // ...the zero cooldown half-opens on the next offer, the probe
    // session completes healthy, and the breaker recloses.
    EXPECT_TRUE(server.offer(events[2].utterance));
    EXPECT_TRUE(server.offer(events[3].utterance));
    server.drain();

    const ServeReport r = server.report();
    EXPECT_TRUE(ledgerHolds(r));
    EXPECT_EQ(r.admitted, 4u);
    EXPECT_EQ(r.degraded, 2u);
    EXPECT_EQ(r.completed, 2u);
    EXPECT_EQ(r.breakerTrips, 1u);
    EXPECT_EQ(r.breakerHalfOpens, 1u);
    EXPECT_EQ(r.shedBreaker, 0u);
}

// ---------------------------------------------------------------------
// Golden baseline of a drained-and-resumed run
// ---------------------------------------------------------------------

/** The aggregates the golden pins: a full checkpointed run, then a
 *  resume of its journal on two workers. Every field is an exact
 *  integer (seeded trace, deterministic replay). */
struct ResumeAggregates
{
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t chunks = 0;
    std::uint64_t frames = 0;
    std::uint64_t resumedSessions = 0;
};

ResumeAggregates
deriveResumeAggregates()
{
    auto &ctx = resilienceContext();
    const auto events = makeEvents(8);
    const ServeConfig serve = resilienceConfig();

    TempRunDir dir;
    ServeCheckpoint checkpoint(dir.path);
    {
        StreamingServer server(ctx.system, serve, &checkpoint);
        runAll(server, events);
    }

    ServeConfig resumeConfig = serve;
    resumeConfig.resume = true;
    resumeConfig.threads = 2;
    StreamingServer server(ctx.system, resumeConfig, &checkpoint);
    runAll(server, events);
    const ServeReport r = server.report();
    return {r.offered,   r.admitted, r.shed,
            r.completed, r.degraded, r.chunks,
            r.frames,    r.resumedSessions};
}

void
writeResumeGolden(const ResumeAggregates &a)
{
    std::ofstream os(kResumeGoldenPath);
    ASSERT_TRUE(os) << "cannot write " << kResumeGoldenPath;
    os << "{\n  \"schema\": \"darkside-golden-serve-resume-v1\""
       << ",\n  \"offered\": " << a.offered
       << ",\n  \"admitted\": " << a.admitted
       << ",\n  \"shed\": " << a.shed
       << ",\n  \"completed\": " << a.completed
       << ",\n  \"degraded\": " << a.degraded
       << ",\n  \"chunks\": " << a.chunks
       << ",\n  \"frames\": " << a.frames
       << ",\n  \"resumed_sessions\": " << a.resumedSessions
       << "\n}\n";
}

TEST(ServeResilience, GoldenResumeAggregatesMatchBaseline)
{
    const ResumeAggregates derived = deriveResumeAggregates();

    if (std::getenv("DS_GOLDEN_REGENERATE") != nullptr) {
        writeResumeGolden(derived);
        std::printf("regenerated %s\n", kResumeGoldenPath);
        return;
    }

    std::ifstream is(kResumeGoldenPath);
    ASSERT_TRUE(is) << "missing " << kResumeGoldenPath
                    << " — regenerate with DS_GOLDEN_REGENERATE=1";
    std::stringstream buf;
    buf << is.rdbuf();
    std::string error;
    const JsonValue root = JsonValue::parse(buf.str(), &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_TRUE(root.member("schema") &&
                root.member("schema")->asString() ==
                    "darkside-golden-serve-resume-v1");

    const auto expect = [&root](const char *name,
                                std::uint64_t actual) {
        const JsonValue *v = root.member(name);
        ASSERT_TRUE(v != nullptr) << name;
        EXPECT_EQ(static_cast<std::uint64_t>(v->asNumber()), actual)
            << name;
    };
    expect("offered", derived.offered);
    expect("admitted", derived.admitted);
    expect("shed", derived.shed);
    expect("completed", derived.completed);
    expect("degraded", derived.degraded);
    expect("chunks", derived.chunks);
    expect("frames", derived.frames);
    expect("resumed_sessions", derived.resumedSessions);
}

} // namespace
} // namespace darkside
