/**
 * @file
 * Chaos scenario runner for the serving resilience layer
 * (docs/SERVING.md, docs/FAULTS.md): replay one seeded traffic trace
 * three times — fault-free reference, chaos run under a fault plan
 * covering every serve-layer probe (serve.admit_drop,
 * serve.chunk_stall, serve.checkpoint_torn) plus injected decoder
 * timeouts, and a resume of the chaos run's journal under the same
 * still-armed plan — and assert the resilience invariants:
 *
 *   1. the session ledger stays arithmetic — admitted + shed ==
 *      offered and completed + degraded == admitted — in every run;
 *   2. sessions the chaos run left healthy decode bit-identically
 *      (words and total cost) to the fault-free reference;
 *   3. the journal is never corrupt: every torn commit is quarantined
 *      on the next load and recomputed, and the resumed run's
 *      per-session outcome dump is byte-identical to the chaos run's;
 *   4. a drain refuses late offers in both the chaos and resume runs
 *      and commits a manifest that matches the final ledger.
 *
 * Every fault trigger is a pure function of (plan seed, key), so the
 * whole scenario is deterministic and the asserts are exact.
 *
 * Environment knobs (defaults in parentheses):
 *   DARKSIDE_CHAOS_SESSIONS (24)  sessions offered
 *   DARKSIDE_CHAOS_THREADS  (2)   session workers
 *
 * Emits BENCH_chaos_serve.json (argv[1] or $DARKSIDE_BENCH_JSON), and
 * publishes telemetry (--metrics / $DARKSIDE_METRICS). Exits nonzero
 * the moment an invariant breaks.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "fault/fault.hh"
#include "serve/serve_bench.hh"
#include "telemetry/metrics.hh"
#include "telemetry/snapshot.hh"

namespace darkside {
namespace bench {
namespace {

std::size_t
envSize(const char *name, std::size_t fallback)
{
    if (const char *env = std::getenv(name))
        return static_cast<std::size_t>(std::atoll(env));
    return fallback;
}

std::uint64_t
counterValue(const telemetry::Snapshot &snap, const std::string &name)
{
    for (const auto &c : snap.counters) {
        if (c.name == name)
            return c.value;
    }
    return 0;
}

int failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok)
        ++failures;
}

/** Offer the whole trace, request a drain, offer two late stragglers
 *  (must be refused), and drain. The shape every run shares. */
ServeReport
runTrace(StreamingServer &server, const std::vector<TrafficEvent> &events,
         std::vector<SessionOutcome> &outcomes)
{
    for (const auto &event : events)
        server.offer(event.utterance);
    server.requestDrain();
    server.offer(events[0].utterance);
    server.offer(events[1].utterance);
    server.drain();
    outcomes = server.outcomes();
    return server.report();
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

int
run(int argc, char **argv)
{
    printBanner("chaos_serve",
                "serving resilience chaos harness: one seeded trace "
                "under injected admission drops, chunk stalls, torn "
                "journal commits and decoder timeouts, then a journal "
                "resume — all invariants checked exactly");

    auto &ctx = context();

    ServeConfig serve;
    serve.system =
        ctx.setup.configFor(SearchMode::NBestHash, PruneLevel::P90);
    serve.chunkFrames = 16;
    serve.threads = envSize("DARKSIDE_CHAOS_THREADS", 2);
    // Admit everything the trace offers: shedding in this scenario
    // must come from the injected faults and the drain alone, so the
    // outcome dump is deterministic at any worker count.
    serve.admission.maxSessions = 64;
    serve.admission.maxQueueDepth = 100000;

    TrafficConfig traffic;
    traffic.sessions = envSize("DARKSIDE_CHAOS_SESSIONS", 24);
    traffic.maxLengthMultiple = 2;

    SyntheticTrafficGenerator generator(ctx.testSet, traffic);
    const std::vector<TrafficEvent> events = generator.generate();

    const std::string run_dir = "chaos_serve_run";
    std::filesystem::remove_all(run_dir);

    // Warm the serving level's engine outside the scenario.
    ctx.system.engineFor(serve.system.prune);

    // --- Phase 1: fault-free reference --------------------------------
    std::printf("\nphase 1: fault-free reference (%zu sessions, %zu "
                "workers)\n",
                traffic.sessions, serve.threads);
    std::vector<SessionOutcome> reference;
    ServeReport referenceReport;
    {
        StreamingServer server(ctx.system, serve);
        referenceReport = runTrace(server, events, reference);
    }
    check(ledgerHolds(referenceReport), "reference ledger arithmetic");
    check(referenceReport.shedDraining == 2,
          "reference drain refused both late offers");

    // --- Phase 2: chaos under the full serve fault plan ---------------
    std::printf("\nphase 2: chaos run (admit drops, chunk stalls, torn "
                "commits, decoder timeouts)\n");
    FaultPlan plan;
    plan.seed = traffic.seed;
    plan.rules.push_back({"serve.admit_drop", FaultKind::AllocFail,
                          {}, 5, 3, 0.0, 0});
    plan.rules.push_back({"serve.chunk_stall", FaultKind::Timeout,
                          {}, 6, 1, 0.0, 0});
    plan.rules.push_back({"serve.checkpoint_torn", FaultKind::IoError,
                          {}, 0, 0, 0.25, 0});
    plan.rules.push_back({"decoder.decode", FaultKind::Timeout,
                          {}, 9, 2, 0.0, 0});
    ScopedFaultPlan armed(std::move(plan));

    UnitJournal journal(run_dir);
    std::vector<SessionOutcome> chaos;
    ServeReport chaosReport;
    const auto beforeChaos =
        telemetry::MetricRegistry::global().snapshot();
    {
        StreamingServer server(ctx.system, serve, &journal);
        chaosReport = runTrace(server, events, chaos);
    }
    const auto afterChaos =
        telemetry::MetricRegistry::global().snapshot();
    const std::uint64_t torn =
        counterValue(afterChaos, "fault.injected.serve.checkpoint_torn") -
        counterValue(beforeChaos,
                     "fault.injected.serve.checkpoint_torn");
    const std::uint64_t dropped =
        counterValue(afterChaos, "fault.injected.serve.admit_drop") -
        counterValue(beforeChaos, "fault.injected.serve.admit_drop");
    std::printf("  injected: %llu admit drops, %llu torn commits; "
                "%llu sessions degraded\n",
                static_cast<unsigned long long>(dropped),
                static_cast<unsigned long long>(torn),
                static_cast<unsigned long long>(chaosReport.degraded));

    check(ledgerHolds(chaosReport), "chaos ledger arithmetic");
    check(chaosReport.shedInjected == dropped,
          "every injected admission drop counted under "
          "serve.shed.injected");
    check(chaosReport.shedDraining == 2,
          "chaos drain refused both late offers");

    // Invariant 2: chaos-healthy sessions match the reference exactly.
    bool healthyIdentical = true;
    std::size_t healthy = 0;
    {
        std::vector<const SessionOutcome *> byIndex(events.size(),
                                                    nullptr);
        for (const auto &o : reference)
            if (o.index < byIndex.size())
                byIndex[o.index] = &o;
        for (const auto &o : chaos) {
            if (o.degraded || o.index >= byIndex.size())
                continue;
            const SessionOutcome *ref = byIndex[o.index];
            if (!ref || ref->degraded || o.words != ref->words ||
                o.totalCost != ref->totalCost) {
                healthyIdentical = false;
                break;
            }
            ++healthy;
        }
    }
    check(healthyIdentical,
          "healthy chaos sessions bit-identical to the reference");
    check(loadServeManifest(journal, serve).isOk(),
          "drain committed a manifest");

    // --- Phase 3: resume the journal under the same armed plan --------
    std::printf("\nphase 3: resume from the journal (torn units must "
                "quarantine and recompute)\n");
    std::vector<SessionOutcome> resumed;
    ServeReport resumeReport;
    const auto beforeResume =
        telemetry::MetricRegistry::global().snapshot();
    {
        StreamingServer server(ctx.system, serve, &journal);
        resumeReport = runTrace(server, events, resumed);
    }
    const auto afterResume =
        telemetry::MetricRegistry::global().snapshot();
    const std::uint64_t quarantined =
        counterValue(afterResume, "store.quarantined") -
        counterValue(beforeResume, "store.quarantined");
    std::printf("  replayed %llu sessions, quarantined %llu torn "
                "units\n",
                static_cast<unsigned long long>(
                    resumeReport.resumedSessions),
                static_cast<unsigned long long>(quarantined));

    check(ledgerHolds(resumeReport), "resume ledger arithmetic");
    check(quarantined == torn,
          "every torn commit quarantined on resume, none leaked");
    check(resumeReport.resumedSessions + quarantined ==
              chaosReport.completed + chaosReport.degraded,
          "journaled sessions replayed, torn ones recomputed");
    check(serveOutcomesText(resumeReport, resumed) ==
              serveOutcomesText(chaosReport, chaos),
          "resumed outcome dump byte-identical to the chaos run");

    // Loading under `serve`'s key checks the configuration.
    auto manifest = loadServeManifest(journal, serve);
    check(manifest.isOk() &&
              manifest.value().offered == resumeReport.offered &&
              manifest.value().admitted == resumeReport.admitted &&
              manifest.value().shed == resumeReport.shed &&
              manifest.value().completed == resumeReport.completed &&
              manifest.value().degraded == resumeReport.degraded,
          "manifest matches the final ledger and configuration");

    std::printf("\n%s\n", failures == 0
                              ? "all chaos invariants hold"
                              : "CHAOS INVARIANT VIOLATIONS");

    std::string json_path = "BENCH_chaos_serve.json";
    if (const char *env = std::getenv("DARKSIDE_BENCH_JSON"))
        json_path = env;
    if (argc > 1)
        json_path = argv[1];
    std::ofstream os(json_path);
    os << "{\n  \"schema\": \"darkside-chaos-serve-v1\""
       << ",\n  \"sessions\": " << traffic.sessions
       << ",\n  \"threads\": " << serve.threads
       << ",\n  \"reference_completed\": " << referenceReport.completed
       << ",\n  \"chaos_offered\": " << chaosReport.offered
       << ",\n  \"chaos_admitted\": " << chaosReport.admitted
       << ",\n  \"chaos_shed\": " << chaosReport.shed
       << ",\n  \"chaos_completed\": " << chaosReport.completed
       << ",\n  \"chaos_degraded\": " << chaosReport.degraded
       << ",\n  \"admit_drops\": " << dropped
       << ",\n  \"torn_commits\": " << torn
       << ",\n  \"quarantined_on_resume\": " << quarantined
       << ",\n  \"resumed_sessions\": " << resumeReport.resumedSessions
       << ",\n  \"healthy_sessions\": " << healthy
       << ",\n  \"invariant_failures\": " << failures << "\n}\n";
    if (!os) {
        std::fprintf(stderr, "cannot write '%s'\n", json_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());

    return failures == 0 ? 0 : 1;
}

} // namespace
} // namespace bench
} // namespace darkside

int
main(int argc, char **argv)
{
    darkside::bench::metricsInit(&argc, argv);
    const int status = darkside::bench::run(argc, argv);
    const int metrics_status = darkside::bench::metricsFinish();
    return status != 0 ? status : metrics_status;
}
