/**
 * @file
 * Tests of the serving resilience layer (docs/SERVING.md): the server
 * as a run-journal client (manifest round trip, unit keys), drain
 * semantics under inline ThreadPool(0|1) execution, bit-identical
 * resume of an interrupted run at several thread counts, torn and
 * crafted units quarantined or refused and recomputed, the serve-layer
 * fault probes (serve.admit_drop, serve.chunk_stall,
 * serve.checkpoint_torn), the
 * circuit breaker's trip/half-open/reclose cycle, and the golden
 * baseline pinning a drained-and-resumed run's aggregates
 * (tests/golden/serve_resume.json; regenerate an intentional change
 * with DS_GOLDEN_REGENERATE=1 ./build/tests/serve_resilience_test).
 * The admission/shedding policy itself is covered in serve_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "mini_setup.hh"
#include "serve/serve_bench.hh"
#include "serve/server.hh"
#include "serve/traffic.hh"
#include "store/checkpoint.hh"
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
// The server as a run-journal client
// ---------------------------------------------------------------------

TEST(ServeJournal, ManifestRoundTripsUnderItsConfigKey)
{
    auto &ctx = resilienceContext();
    const auto events = makeEvents(2);
    const ServeConfig serve = resilienceConfig();
    TempRunDir dir;
    UnitJournal journal(dir.path);
    EXPECT_FALSE(loadServeManifest(journal, serve).isOk());

    StreamingServer server(ctx.system, serve, &journal);
    runAll(server, events);
    const ServeReport r = server.report();
    auto manifest = loadServeManifest(journal, serve);
    ASSERT_TRUE(manifest.isOk()) << manifest.message();
    EXPECT_EQ(manifest.value().offered, r.offered);
    EXPECT_EQ(manifest.value().admitted, r.admitted);
    EXPECT_EQ(manifest.value().shed, r.shed);
    EXPECT_EQ(manifest.value().completed, r.completed);
    EXPECT_EQ(manifest.value().degraded, r.degraded);
    EXPECT_EQ(manifest.value().resumedSessions, r.resumedSessions);

    // Committed under another configuration's key: refused.
    ServeConfig chunked = serve;
    chunked.chunkFrames = 4;
    EXPECT_FALSE(loadServeManifest(journal, chunked).isOk());
}

TEST(ServeJournal, KeySeparatesEveryFieldThatChangesASession)
{
    const ServeConfig base = resilienceConfig();
    const std::uint64_t key = base.system.key();
    const std::vector<std::function<void(SystemConfig &)>> edits = {
        [](SystemConfig &c) { c.prune = PruneLevel::P70; },
        [](SystemConfig &c) { c.mode = SearchMode::Baseline; },
        [](SystemConfig &c) { c.beam += 1.0f; },
        [](SystemConfig &c) { c.nbestEntries *= 2; },
        [](SystemConfig &c) { c.nbestWays *= 2; },
        [](SystemConfig &c) { c.relMargin += 1.0f; },
        [](SystemConfig &c) { c.relMaxSurvivors += 1; },
        [](SystemConfig &c) { c.adaptiveMinMargin += 1.0f; },
        [](SystemConfig &c) { c.adaptiveMaxMargin += 1.0f; },
        [](SystemConfig &c) { c.adaptiveEmaAlpha += 0.125f; },
    };
    for (std::size_t field = 0; field < edits.size(); ++field) {
        SystemConfig edited = base.system;
        edits[field](edited);
        EXPECT_NE(edited.key(), key) << "field " << field;
    }

    // Session units: a journal replays under any worker count,
    // scoring mode and admission budget, and not under other chunking.
    auto &ctx = resilienceContext();
    const auto events = makeEvents(2);
    TempRunDir dir;
    UnitJournal journal(dir.path);
    {
        StreamingServer server(ctx.system, base, &journal);
        runAll(server, events);
    }
    ServeConfig same = base;
    same.threads = 2;
    same.pipelineScoring = !base.pipelineScoring;
    same.admission.maxSessions = 8;
    same.admission.maxQueueDepth = 16;
    ServeConfig chunked = base;
    chunked.chunkFrames = 4;
    EXPECT_EQ(same.key(), base.key());
    EXPECT_NE(chunked.key(), base.key());
    for (const auto &[config, replayed] :
         {std::pair{same, events.size()}, std::pair{chunked, 0ul}}) {
        StreamingServer server(ctx.system, config, &journal);
        runAll(server, events);
        EXPECT_EQ(server.report().resumedSessions, replayed)
            << "chunk " << config.chunkFrames;
    }
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

    // Session 1 degrades in every run that decodes it, so the journal
    // round-trips a degraded outcome (cause, frames, chunks) as well
    // as healthy ones (words, cost).
    FaultPlan plan;
    plan.seed = 1;
    plan.rules.push_back({"decoder.decode", FaultKind::Timeout,
                          {events[1].utterance.id}, 0, 0, 0.0, 0});
    ScopedFaultPlan armed(std::move(plan));

    // Uninterrupted reference, no journal.
    std::string reference;
    {
        StreamingServer server(ctx.system, serve);
        reference = runAll(server, events);
    }
    ASSERT_NE(reference.find(" degraded frames "), std::string::npos);

    // "Killed" run: only half the trace reaches the journal.
    TempRunDir dir;
    UnitJournal journal(dir.path);
    {
        StreamingServer server(ctx.system, serve, &journal);
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
        resumeConfig.threads = threads;
        StreamingServer server(ctx.system, resumeConfig, &journal);
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
    UnitJournal journal(dir.path);
    std::string reference;
    {
        StreamingServer server(ctx.system, serve, &journal);
        reference = runAll(server, events);
    }

    // Tear one committed unit in place, the way a crash mid-writeback
    // would: the frame no longer verifies, so resume must quarantine
    // it and recompute that session instead of trusting it.
    const std::string torn =
        journal.store().pathOf(UnitJournal::unitFileName("session_1"));
    const auto size = std::filesystem::file_size(torn);
    std::filesystem::resize_file(torn, size / 2);

    StreamingServer server(ctx.system, serve, &journal);
    EXPECT_EQ(runAll(server, events), reference);
    const ServeReport r = server.report();
    EXPECT_TRUE(ledgerHolds(r));
    EXPECT_EQ(r.resumedSessions, events.size() - 1);
    // The recomputed session was re-journaled whole.
    EXPECT_TRUE(journal.hasUnit("session_1"));
    EXPECT_EQ(std::filesystem::file_size(torn), size);
}

/**
 * Journal a 4-session trace, apply `edit` to session 1's unit and
 * recommit it through the store (so its frame, CRC and key verify),
 * then rerun: the edited unit is refused and recomputed, the other
 * three replay, and the outcome dump equals the uninterrupted run.
 */
void
expectEditedUnitRecomputes(const std::function<void(std::string &)> &edit)
{
    auto &ctx = resilienceContext();
    const auto events = makeEvents(4);
    const ServeConfig serve = resilienceConfig();

    TempRunDir dir;
    UnitJournal journal(dir.path);
    std::string reference;
    {
        StreamingServer server(ctx.system, serve, &journal);
        reference = runAll(server, events);
    }

    const std::string name = UnitJournal::unitFileName("session_1");
    auto payload = journal.store().read(name, UnitJournal::kUnitKind);
    ASSERT_TRUE(payload.isOk()) << payload.message();
    std::string edited = payload.value();
    edit(edited);
    if (testing::Test::HasFatalFailure())
        return;
    ASSERT_TRUE(journal.store()
                    .write(name, UnitJournal::kUnitKind, edited)
                    .isOk());

    const auto resumedCounter = [] {
        const auto snap = telemetry::MetricRegistry::global().snapshot();
        return snap.findCounter("serve.drain.resumed_sessions")->value;
    };
    const std::uint64_t resumed_before = resumedCounter();
    StreamingServer server(ctx.system, serve, &journal);
    EXPECT_EQ(runAll(server, events), reference);
    const ServeReport r = server.report();
    EXPECT_TRUE(ledgerHolds(r));
    EXPECT_EQ(r.resumedSessions, events.size() - 1);
    EXPECT_EQ(resumedCounter(), resumed_before + events.size() - 1);
}

TEST(ServeResilience, UnitWhoseDeltaDisagreesWithTheRegistryRecomputes)
{
    // Session 1's unit as a build registering the session ledger in
    // another unit would have written it: a same-length edit inside
    // its delta.
    expectEditedUnitRecomputes([](std::string &unit_bytes) {
        const std::string unit =
            "\"name\": \"serve.sessions.completed\", \"unit\": ";
        const auto at = unit_bytes.find(unit + "\"sessions\"");
        ASSERT_NE(at, std::string::npos);
        unit_bytes.replace(at, unit.size() + 10, unit + "\"sessionz\"");
    });
}

TEST(ServeResilience, UnitWhoseWordCountWrapsRecomputes)
{
    // The word count set to 2^62 + 1, whose byte size wraps to 4. The
    // envelope holds the key and the record length (16 bytes) before
    // the record; a healthy session's count follows its flag, its
    // empty cause and three 8-byte fields.
    expectEditedUnitRecomputes([](std::string &unit_bytes) {
        const std::size_t count_at = 16 + 1 + 8 + 3 * 8;
        std::uint64_t cause_length = 0, count = 0;
        std::memcpy(&cause_length, &unit_bytes[16 + 1], sizeof(count));
        std::memcpy(&count, &unit_bytes[count_at], sizeof(count));
        ASSERT_EQ(cause_length, 0u);
        ASSERT_LT(count, 64u);
        count = (std::uint64_t{1} << 62) + 1;
        std::memcpy(&unit_bytes[count_at], &count, sizeof(count));
    });
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
    UnitJournal journal(dir.path);
    {
        // Tear exactly the commit of offer index 0 — the probe is
        // keyed on the hash of the unit's store-relative name.
        FaultPlan plan;
        plan.seed = 1;
        plan.rules.push_back(
            {"serve.checkpoint_torn", FaultKind::IoError,
             {faultKey(UnitJournal::unitFileName("session_0"))}, 0, 0,
             0.0, 0});
        ScopedFaultPlan armed(std::move(plan));
        StreamingServer server(ctx.system, serve, &journal);
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
    StreamingServer server(ctx.system, serve, &journal);
    EXPECT_EQ(runAll(server, events), reference);
    const ServeReport r = server.report();
    EXPECT_TRUE(ledgerHolds(r));
    EXPECT_EQ(r.resumedSessions, events.size() - 1);
    EXPECT_TRUE(journal.hasUnit("session_0"));
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
    UnitJournal journal(dir.path);
    {
        StreamingServer server(ctx.system, serve, &journal);
        runAll(server, events);
    }

    ServeConfig resumeConfig = serve;
    resumeConfig.threads = 2;
    StreamingServer server(ctx.system, resumeConfig, &journal);
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
