/**
 * @file
 * Tests of the telemetry library: counter/histogram/timer semantics,
 * shard-merge determinism under a thread pool, exporter round-trips
 * through the JSON parser, the deterministic-snapshot filter, and the
 * metric table: registration enforces it, and docs/METRICS.md lists
 * each of its entries once.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/metric_spec.hh"
#include "telemetry/metrics.hh"
#include "telemetry/snapshot.hh"
#include "util/csv.hh"
#include "util/json.hh"
#include "util/thread_pool.hh"

namespace darkside {
namespace telemetry {
namespace {

TEST(Counter, AccumulatesAndMerges)
{
    MetricRegistry reg;
    Counter c = reg.counter("t.count", "events");
    c.add();
    c.add(41);

    const Snapshot snap = reg.snapshot();
    const CounterSample *s = snap.findCounter("t.count");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->value, 42u);
    EXPECT_EQ(s->unit, "events");
    EXPECT_TRUE(s->deterministic);
}

TEST(Counter, DetachedHandleIsNoop)
{
    Counter c;
    c.add(7); // must not crash
    Histogram h;
    h.observe(1.0);
}

TEST(Counter, RegistrationIsIdempotent)
{
    MetricRegistry reg;
    reg.counter("t.twice", "events").add(1);
    reg.counter("t.twice", "events").add(2);

    const Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].value, 3u);
}

TEST(Histogram, BucketsUnderOverflowMinMax)
{
    MetricRegistry reg;
    Histogram h = reg.histogram("t.hist", "ms", {0.0, 10.0, 10});
    h.observe(-1.0); // underflow
    h.observe(0.0);  // bucket 0
    h.observe(5.5);  // bucket 5
    h.observe(9.99); // bucket 9
    h.observe(10.0); // hi edge is exclusive -> overflow
    h.observe(25.0); // overflow

    const Snapshot snap = reg.snapshot();
    const HistogramSample *s = snap.findHistogram("t.hist");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->count, 6u);
    EXPECT_EQ(s->underflow, 1u);
    EXPECT_EQ(s->overflow, 2u);
    ASSERT_EQ(s->buckets.size(), 10u);
    EXPECT_EQ(s->buckets[0], 1u);
    EXPECT_EQ(s->buckets[5], 1u);
    EXPECT_EQ(s->buckets[9], 1u);
    // min/max are exact even for out-of-range samples.
    EXPECT_DOUBLE_EQ(s->min, -1.0);
    EXPECT_DOUBLE_EQ(s->max, 25.0);
}

TEST(Histogram, QuantileAndMeanApproximate)
{
    MetricRegistry reg;
    Histogram h = reg.histogram("t.q", "x", {0.0, 100.0, 100});
    for (int i = 0; i < 100; ++i)
        h.observe(static_cast<double>(i) + 0.5);

    const Snapshot snap = reg.snapshot();
    const HistogramSample *s = snap.findHistogram("t.q");
    ASSERT_NE(s, nullptr);
    EXPECT_NEAR(s->quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(s->quantile(0.9), 90.0, 1.5);
    EXPECT_NEAR(s->approxMean(), 50.0, 1.5);
}

TEST(Histogram, EmptyHasZeroExtrema)
{
    MetricRegistry reg;
    reg.histogram("t.empty", "x", {0.0, 1.0, 4});
    const Snapshot snap = reg.snapshot();
    const HistogramSample *s = snap.findHistogram("t.empty");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->count, 0u);
    EXPECT_DOUBLE_EQ(s->min, 0.0);
    EXPECT_DOUBLE_EQ(s->max, 0.0);
}

TEST(ScopedTimer, ObservesElapsedMicros)
{
    MetricRegistry reg;
    Histogram h =
        reg.histogram("t.timer_us", "us", {0.0, 1e9, 8}, false);
    {
        ScopedTimer timer(h);
    }
    const Snapshot snap = reg.snapshot();
    const HistogramSample *s = snap.findHistogram("t.timer_us");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->count, 1u);
    EXPECT_GE(s->min, 0.0);
}

TEST(Gauges, SetAndAccumulate)
{
    MetricRegistry reg;
    reg.setGauge("t.gauge", "J", 1.5);
    reg.setGauge("t.gauge", "J", 2.5); // set overwrites
    reg.addGauge("t.acc", "s", 1.0);
    reg.addGauge("t.acc", "s", 0.25);

    const Snapshot snap = reg.snapshot();
    const GaugeSample *g = snap.findGauge("t.gauge");
    ASSERT_NE(g, nullptr);
    EXPECT_DOUBLE_EQ(g->value, 2.5);
    const GaugeSample *a = snap.findGauge("t.acc");
    ASSERT_NE(a, nullptr);
    EXPECT_DOUBLE_EQ(a->value, 1.25);
}

TEST(Registry, ResetZeroesValuesKeepsRegistrations)
{
    MetricRegistry reg;
    Counter c = reg.counter("t.c", "n");
    Histogram h = reg.histogram("t.h", "x", {0.0, 1.0, 2});
    c.add(5);
    h.observe(0.5);
    reg.setGauge("t.g", "x", 3.0);

    reg.reset();

    Snapshot snap = reg.snapshot();
    ASSERT_NE(snap.findCounter("t.c"), nullptr);
    EXPECT_EQ(snap.findCounter("t.c")->value, 0u);
    ASSERT_NE(snap.findHistogram("t.h"), nullptr);
    EXPECT_EQ(snap.findHistogram("t.h")->count, 0u);
    EXPECT_EQ(snap.findGauge("t.g"), nullptr);

    // Handles stay valid and record again after reset.
    c.add(2);
    h.observe(0.25);
    snap = reg.snapshot();
    EXPECT_EQ(snap.findCounter("t.c")->value, 2u);
    EXPECT_EQ(snap.findHistogram("t.h")->count, 1u);
}

/** The same deterministically partitioned work must produce the same
 *  deterministic snapshot for any worker count. */
TEST(Registry, ShardMergeIsThreadCountInvariant)
{
    auto run = [](std::size_t threads) {
        MetricRegistry reg;
        Counter items = reg.counter("t.items", "n");
        Counter weight = reg.counter("t.weight", "n");
        Histogram values = reg.histogram("t.values", "x",
                                         {0.0, 1024.0, 32});
        // A non-deterministic metric records too; the deterministic
        // view must filter it rather than diverge.
        Counter sched = reg.counter("t.sched", "n", false);

        ThreadPool pool(threads);
        pool.parallelFor(1000, [&](std::size_t b, std::size_t e) {
            sched.add(1); // chunk count varies with scheduling
            for (std::size_t i = b; i < e; ++i) {
                items.add(1);
                weight.add(i);
                values.observe(static_cast<double>(i));
            }
        });
        return reg.snapshot().deterministic().toJson();
    };

    const std::string serial = run(1);
    EXPECT_EQ(serial, run(4));
    EXPECT_EQ(serial, run(7));
}

TEST(Snapshot, DeterministicFilterDropsFlagged)
{
    MetricRegistry reg;
    reg.counter("t.det", "n").add(1);
    reg.counter("t.wall", "us", false).add(123);
    reg.histogram("t.lat", "us", {0.0, 1.0, 2}, false).observe(0.5);

    const Snapshot det = reg.snapshot().deterministic();
    EXPECT_NE(det.findCounter("t.det"), nullptr);
    EXPECT_EQ(det.findCounter("t.wall"), nullptr);
    EXPECT_EQ(det.findHistogram("t.lat"), nullptr);
}

TEST(Snapshot, JsonRoundTripsThroughParser)
{
    MetricRegistry reg;
    reg.counter("b.second", "n").add(7);
    reg.counter("a.first", "n").add(3);
    reg.histogram("c.h", "ms", {0.0, 4.0, 4}).observe(1.0);
    reg.setGauge("d.g", "J", 0.125);

    const std::string json = reg.snapshot().toJson();
    std::string error;
    const JsonValue root = JsonValue::parse(json, &error);
    ASSERT_TRUE(error.empty()) << error;

    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(root.member("schema")->asString(), kSchemaName);

    const auto &counters = root.member("counters")->asArray();
    ASSERT_EQ(counters.size(), 2u);
    // Sorted by name.
    EXPECT_EQ(counters[0].member("name")->asString(), "a.first");
    EXPECT_EQ(counters[0].member("value")->asNumber(), 3.0);
    EXPECT_EQ(counters[1].member("name")->asString(), "b.second");

    const auto &hists = root.member("histograms")->asArray();
    ASSERT_EQ(hists.size(), 1u);
    EXPECT_EQ(hists[0].member("count")->asNumber(), 1.0);
    ASSERT_EQ(hists[0].member("buckets")->asArray().size(), 4u);
    EXPECT_EQ(hists[0].member("buckets")->asArray()[1].asNumber(), 1.0);

    const auto &gauges = root.member("gauges")->asArray();
    ASSERT_EQ(gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(gauges[0].member("value")->asNumber(), 0.125);
}

TEST(Snapshot, IdenticalValuesSerializeByteIdentically)
{
    auto build = [] {
        MetricRegistry reg;
        reg.counter("x.c", "n").add(9);
        reg.histogram("x.h", "s", {0.0, 2.0, 2}).observe(1.5);
        reg.setGauge("x.g", "J", 1.0 / 3.0);
        return reg.snapshot().toJson();
    };
    EXPECT_EQ(build(), build());
}

TEST(Snapshot, WriteJsonFileAndReadBack)
{
    MetricRegistry reg;
    reg.counter("f.c", "n").add(1);
    const Snapshot snap = reg.snapshot();

    const std::string path =
        testing::TempDir() + "telemetry_roundtrip.json";
    ASSERT_TRUE(snap.writeJsonFile(path));

    std::ifstream is(path);
    std::stringstream buf;
    buf << is.rdbuf();
    EXPECT_EQ(buf.str(), snap.toJson());
    std::remove(path.c_str());
}

TEST(Snapshot, CsvExportHasHeaderAndRows)
{
    MetricRegistry reg;
    reg.counter("e.c", "n").add(2);
    reg.histogram("e.h", "x", {0.0, 1.0, 2}).observe(0.5);
    reg.setGauge("e.g", "J", 4.0);

    const std::string path = testing::TempDir() + "telemetry_test.csv";
    {
        CsvWriter csv(path);
        reg.snapshot().writeCsv(csv);
    }
    std::ifstream is(path);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(is, line))
        lines.push_back(line);
    std::remove(path.c_str());

    ASSERT_EQ(lines.size(), 4u); // header + counter + gauge + histogram
    EXPECT_NE(lines[0].find("kind"), std::string::npos);
    EXPECT_NE(lines[1].find("counter"), std::string::npos);
    EXPECT_NE(lines[2].find("gauge"), std::string::npos);
    EXPECT_NE(lines[3].find("histogram"), std::string::npos);
}

// ---------------------------------------------------------------------
// The metric table (telemetry/metric_spec.hh)
// ---------------------------------------------------------------------

TEST(MetricTable, EveryEntryIsUnderAFamilyAndMatchesOnlyItself)
{
    for (const MetricSpec &spec : metricSpecs()) {
        EXPECT_NE(familyOf(spec.name), nullptr) << spec.name;
        if (!spec.isPattern()) {
            EXPECT_EQ(findMetricSpec(spec.name), &spec) << spec.name;
        }
    }
    EXPECT_NE(findMetricSpec("accel.dnn.90.fc_utilization"), nullptr);
    EXPECT_NE(findMetricSpec("fault.injected.decoder.decode"), nullptr);
    EXPECT_EQ(findMetricSpec("accel.dnn..fc_utilization"), nullptr);
}

TEST(MetricTable, NamesUnderNoFamilyRegisterUnchecked)
{
    MetricRegistry reg;
    reg.counter("t.count", "anything", false).add(1);
    reg.histogram("t.hist", "whatever", {0.0, 1.0, 2}).observe(0.5);
    reg.setGauge("t.gauge", "J", 1.0);
    EXPECT_NE(reg.snapshot().findCounter("t.count"), nullptr);
}

TEST(MetricTable, ProbeCountersTakeTheirFlagFromTheProbe)
{
    // fault.injected.<probe> carries the probe registry's flag, which
    // the table leaves to fault/ (and metrics_check) to check.
    MetricRegistry reg;
    reg.counter("fault.injected.decoder.decode", "faults", true);
    reg.counter("fault.injected.pool.chunk", "faults", false);
    EXPECT_EQ(reg.snapshot().counters.size(), 2u);
}

TEST(MetricTableDeathTest, MisspelledNameUnderAFamilyPanics)
{
    MetricRegistry reg;
    EXPECT_DEATH(reg.counter("serve.chunk", "chunks", false),
                 "metric 'serve\\.chunk' is not in the metric table");
}

TEST(MetricTableDeathTest, WrongUnitPanics)
{
    MetricRegistry reg;
    EXPECT_DEATH(reg.counter("serve.chunks", "frames", false),
                 "metric 'serve\\.chunks' has unit 'frames'");
    EXPECT_DEATH(reg.setGauge("system.wer", "percent", 1.0),
                 "metric 'system\\.wer' has unit 'percent'");
}

TEST(MetricTableDeathTest, WrongFlagPanics)
{
    MetricRegistry reg;
    EXPECT_DEATH(reg.counter("serve.chunks", "chunks", true),
                 "metric 'serve\\.chunks' is deterministic");
}

TEST(MetricTableDeathTest, WrongKindPanics)
{
    MetricRegistry reg;
    EXPECT_DEATH(
        reg.histogram("serve.chunks", "chunks", {0.0, 1.0, 2}, false),
        "metric 'serve\\.chunks' is a counter in the metric table");
}

TEST(MetricTableDeathTest, WrongBucketRangePanics)
{
    MetricRegistry reg;
    EXPECT_DEATH(reg.histogram("dnn.infer.window_frames", "frames",
                               {0.0, 256.0, 32}),
                 "metric 'dnn\\.infer\\.window_frames' has buckets");
    EXPECT_DEATH(reg.histogram("dnn.infer.window_frames", "frames",
                               {0.0, 128.0, 64}),
                 "metric 'dnn\\.infer\\.window_frames' has buckets");
}

#ifndef DS_METRICS_DOC
#error "DS_METRICS_DOC must point at docs/METRICS.md"
#endif

/** Cells of a markdown table row, trimmed. */
std::vector<std::string>
cells(const std::string &line)
{
    std::vector<std::string> out;
    std::stringstream row(line.substr(1));
    std::string cell;
    while (std::getline(row, cell, '|')) {
        const auto first = cell.find_first_not_of(' ');
        const auto last = cell.find_last_not_of(' ');
        out.push_back(first == std::string::npos
                          ? ""
                          : cell.substr(first, last - first + 1));
    }
    return out;
}

TEST(MetricTable, DocsListEveryEntryOnceWithItsKindAndUnit)
{
    std::ifstream doc(DS_METRICS_DOC);
    ASSERT_TRUE(doc) << DS_METRICS_DOC;
    std::map<std::string, int> rows;
    std::string line;
    while (std::getline(doc, line)) {
        // | `name` | kind | unit | notes |
        if (line.rfind("| `", 0) != 0)
            continue;
        const std::vector<std::string> row = cells(line);
        ASSERT_GE(row.size(), 3u) << line;
        ASSERT_EQ(row[0].find('`', 1), row[0].size() - 1) << line;
        std::string name = row[0].substr(1, row[0].size() - 2);
        for (const std::string_view placeholder : {"<level>", "<probe>"}) {
            const auto at = name.find(placeholder);
            if (at != std::string::npos)
                name.replace(at, placeholder.size(), 1, '*');
        }
        const MetricSpec *spec = nullptr;
        for (const MetricSpec &s : metricSpecs()) {
            if (s.name == name)
                spec = &s;
        }
        ASSERT_NE(spec, nullptr) << "not in the metric table: " << line;
        EXPECT_EQ(row[1], kindName(spec->kind)) << line;
        EXPECT_EQ(row[2], spec->unit) << line;
        ++rows[name];
    }
    for (const MetricSpec &spec : metricSpecs())
        EXPECT_EQ(rows[std::string(spec.name)], 1) << spec.name;
}

} // namespace
} // namespace telemetry
} // namespace darkside
