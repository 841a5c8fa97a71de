/**
 * @file
 * Shared driver for `darkside serve` and bench/bench_serve: generate a
 * seeded synthetic workload, replay its open-loop arrival schedule
 * against a StreamingServer in real time, and render the latency/shed
 * report as a table, as BENCH_serve.json, and as serve.* gauges.
 */

#ifndef DARKSIDE_SERVE_SERVE_BENCH_HH
#define DARKSIDE_SERVE_SERVE_BENCH_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "serve/server.hh"
#include "serve/traffic.hh"

namespace darkside {

/** One serve workload run: server + traffic shape. */
struct ServeWorkloadOptions
{
    ServeConfig serve;
    TrafficConfig traffic;

    /**
     * Honor the schedule's arrival times with wall-clock pacing (the
     * open-loop replay). False offers every session back to back —
     * the deterministic-count test configuration and the maximum-
     * pressure overload configuration.
     */
    bool paceArrivals = true;

    /** Run journal for drain/resume (`darkside serve --run-dir`);
     *  null serves without one. Must outlive the run. */
    UnitJournal *journal = nullptr;
};

/**
 * Run one synthetic workload to completion.
 *
 * @param system shared platform (models must already be trained)
 * @param base base utterance pool for the traffic generator
 * @param outcomes when non-null, receives the drained server's
 *        per-session outcomes in offer order
 * @return the drained server's report
 */
ServeReport runServeWorkload(AsrSystem &system,
                             const std::vector<Utterance> &base,
                             const ServeWorkloadOptions &options,
                             std::vector<SessionOutcome> *outcomes =
                                 nullptr);

/**
 * Deterministic per-session outcome dump (`darkside serve
 * --outcomes`): one line per offer index — transcript and cost for
 * completed sessions, the fault cause for degraded ones, `shed` for
 * refused offers — plus the aggregate session ledger. When shedding is
 * absent or deterministic (unpaced offers under a budget that admits
 * everything), two runs of the same workload and configuration produce
 * byte-identical text whatever the thread count, which is what the
 * resume acceptance in CI compares.
 */
std::string serveOutcomesText(const ServeReport &report,
                              const std::vector<SessionOutcome> &outcomes);

/** Human-readable latency/shed report. */
void printServeReport(std::ostream &os, const ServeReport &report,
                      const ServeWorkloadOptions &options);

/** BENCH_serve.json payload. */
std::string serveReportJson(const ServeReport &report,
                            const ServeWorkloadOptions &options);

/**
 * Publish the report's summary statistics as serve.* gauges
 * (serve.chunk_p50_us/p95/p99, serve.sessions_per_sec,
 * serve.ttfp_p50_us/p95). Call once,
 * after the drain, from a single-threaded context — the gauge
 * discipline of docs/METRICS.md.
 */
void publishServeGauges(const ServeReport &report);

} // namespace darkside

#endif // DARKSIDE_SERVE_SERVE_BENCH_HH
