#include "telemetry/metric_spec.hh"

#include <cstdio>
#include <string>

namespace darkside {
namespace telemetry {

namespace {

constexpr MetricKind kCounter = MetricKind::Counter;
constexpr MetricKind kGauge = MetricKind::Gauge;
constexpr MetricKind kHistogram = MetricKind::Histogram;
constexpr MetricFlag kDet = MetricFlag::Deterministic;
constexpr MetricFlag kNondet = MetricFlag::NonDeterministic;

// {prefix, complete}. No prefix is a prefix of another.
constexpr MetricFamily kFamilies[] = {
    {"dnn.infer.", false},      {"dnn.kernel.", true},
    {"dnn.cache.", true},       {"search.", false},
    {"selector.", false},       {"decode.trace.", true},
    {"decode.selector.", true}, {"accel.", false},
    {"system.", false},         {"pool.", false},
    {"fault.", true},           {"store.", true},
    {"serve.", true},
};

// A new metric takes one entry here and one row in docs/METRICS.md,
// which says what each one counts. A histogram's entry states its
// bucket range, as its producer registers it.
constexpr MetricSpec kSpecs[] = {
    // InferenceEngine. Not complete: a fully replayed sweep has the
    // deterministic counters but not the wall-time histogram.
    {"dnn.infer.frames", kCounter, "frames", kDet},
    {"dnn.infer.windows", kCounter, "windows", kDet},
    {"dnn.infer.dense_fc_windows", kCounter, "layer-windows", kDet},
    {"dnn.infer.sparse_fc_windows", kCounter, "layer-windows", kDet},
    {"dnn.infer.int8_fc_windows", kCounter, "layer-windows", kDet},
    {"dnn.infer.window_frames", kHistogram, "frames", kDet, {0, 128, 32}},
    {"dnn.infer.window_wall_us", kHistogram, "us", kNondet, {0, 20000, 50}},

    {"dnn.kernel.dispatch.scalar", kCounter, "calls", kDet},
    {"dnn.kernel.dispatch.avx2", kCounter, "calls", kDet},
    {"dnn.kernel.dense_blocks", kCounter, "blocks", kDet},
    {"dnn.kernel.spmv_rows", kCounter, "rows", kDet},

    {"dnn.cache.lookup", kCounter, "lookups", kNondet},
    {"dnn.cache.hit", kCounter, "lookups", kNondet},
    {"dnn.cache.miss", kCounter, "lookups", kNondet},
    {"dnn.cache.insert", kCounter, "entries", kNondet},
    {"dnn.cache.evict", kCounter, "entries", kNondet},

    {"search.utterances", kCounter, "utterances", kDet},
    {"search.frames", kCounter, "frames", kDet},
    {"search.generated", kCounter, "hypotheses", kDet},
    {"search.expanded", kCounter, "tokens", kDet},
    {"search.survivors", kCounter, "hypotheses", kDet},
    {"search.hypotheses_per_frame", kHistogram, "hypotheses", kDet,
     {0, 2048, 64}},
    {"search.generated_per_frame", kHistogram, "hypotheses", kDet,
     {0, 8192, 64}},

    {"selector.insertions", kCounter, "hypotheses", kDet},
    {"selector.recombinations", kCounter, "hypotheses", kDet},
    {"selector.collisions", kCounter, "hypotheses", kDet},
    {"selector.backup_accesses", kCounter, "accesses", kDet},
    {"selector.overflow_accesses", kCounter, "accesses", kDet},
    {"selector.evictions", kCounter, "hypotheses", kDet},
    {"selector.rejections", kCounter, "hypotheses", kDet},

    {"decode.trace.allocated", kCounter, "nodes", kDet},
    {"decode.trace.collected", kCounter, "nodes", kDet},
    {"decode.trace.gc_runs", kCounter, "collections", kDet},
    {"decode.trace.peak_live", kHistogram, "nodes", kDet, {0, 32768, 64}},

    {"decode.selector.frames", kCounter, "frames", kDet},
    {"decode.selector.threshold_hits", kCounter, "hypotheses", kDet},
    {"decode.selector.cap_hits", kCounter, "hypotheses", kDet},
    {"decode.selector.beam_width", kHistogram, "logcost", kDet, {0, 20, 40}},
    {"decode.selector.survivors", kHistogram, "hypotheses", kDet,
     {0, 2048, 32}},
    {"decode.selector.entropy", kHistogram, "ratio", kDet, {0, 1, 20}},

    {"accel.viterbi.cycles", kCounter, "cycles", kDet},
    {"accel.viterbi.frames", kCounter, "frames", kDet},
    {"accel.viterbi.miss_lines", kCounter, "lines", kDet},
    {"accel.viterbi.overflow_lines", kCounter, "lines", kDet},
    {"accel.viterbi.state_cache_misses", kCounter, "accesses", kDet},
    {"accel.viterbi.arc_cache_misses", kCounter, "accesses", kDet},
    // One gauge per DNN-sim prune level.
    {"accel.dnn.*.cycles_per_frame", kGauge, "cycles"},
    {"accel.dnn.*.seconds_per_frame", kGauge, "s"},
    {"accel.dnn.*.dynamic_joules_per_frame", kGauge, "J"},
    {"accel.dnn.*.fc_utilization", kGauge, "ratio"},
    {"accel.dnn.*.model_bytes", kGauge, "bytes"},
    {"accel.dnn.*.load_seconds", kGauge, "s"},

    {"system.utterances", kCounter, "utterances", kDet},
    {"system.frames", kCounter, "frames", kDet},
    {"system.survivors", kCounter, "hypotheses", kDet},
    {"system.generated", kCounter, "hypotheses", kDet},
    {"system.dnn.seconds", kGauge, "s"},
    {"system.dnn.joules", kGauge, "J"},
    {"system.viterbi.seconds", kGauge, "s"},
    {"system.viterbi.joules", kGauge, "J"},
    {"system.wer", kGauge, "ratio"},
    {"system.mean_confidence", kGauge, "ratio"},
    {"system.hyps_per_frame", kGauge, "hypotheses"},

    {"pool.tasks", kCounter, "tasks", kNondet},
    {"pool.inline_tasks", kCounter, "tasks", kNondet},
    {"pool.busy_us", kCounter, "us", kNondet},
    {"pool.queue_wait_us", kHistogram, "us", kNondet, {0, 10000, 50}},
    {"pool.task_wall_us", kHistogram, "us", kNondet, {0, 100000, 50}},

    // Complete means the four outcome counters: a pattern is never
    // required.
    {"fault.injected", kCounter, "faults", kDet},
    {"fault.retried", kCounter, "attempts", kDet},
    {"fault.recovered", kCounter, "operations", kDet},
    {"fault.degraded", kCounter, "utterances", kDet},
    {"fault.injected.*", kCounter, "faults"},

    {"store.writes", kCounter, "artifacts", kDet},
    {"store.write_failures", kCounter, "artifacts", kDet},
    {"store.verified_reads", kCounter, "artifacts", kDet},
    {"store.quarantined", kCounter, "artifacts", kDet},
    {"store.resumed_units", kCounter, "units", kDet},

    // Only the seeded offer count and the drain/journal counters are
    // deterministic; the rest depend on wall-clock scheduling.
    {"serve.sessions.offered", kCounter, "sessions", kDet},
    {"serve.sessions.admitted", kCounter, "sessions", kNondet},
    {"serve.sessions.shed", kCounter, "sessions", kNondet},
    {"serve.sessions.completed", kCounter, "sessions", kNondet},
    {"serve.sessions.degraded", kCounter, "sessions", kNondet},
    {"serve.chunks", kCounter, "chunks", kNondet},
    {"serve.frames", kCounter, "frames", kNondet},
    {"serve.shed.queue", kCounter, "sessions", kNondet},
    {"serve.shed.deadline", kCounter, "sessions", kNondet},
    {"serve.shed.length", kCounter, "sessions", kNondet},
    {"serve.shed.breaker", kCounter, "sessions", kNondet},
    {"serve.shed.injected", kCounter, "sessions", kNondet},
    {"serve.breaker.trips", kCounter, "trips", kNondet},
    {"serve.breaker.half_opens", kCounter, "probes", kNondet},
    {"serve.drain.requested", kCounter, "drains", kDet},
    {"serve.drain.refused", kCounter, "sessions", kDet},
    {"serve.drain.committed_units", kCounter, "units", kDet},
    {"serve.drain.resumed_sessions", kCounter, "sessions", kDet},
    {"serve.chunk_latency_us", kHistogram, "us", kNondet, {0, 20000, 50}},
    {"serve.session_latency_us", kHistogram, "us", kNondet, {0, 2000000, 50}},
    {"serve.ttfp_us", kHistogram, "us", kNondet, {0, 2000000, 50}},
    {"serve.chunk_p50_us", kGauge, "us"},
    {"serve.chunk_p95_us", kGauge, "us"},
    {"serve.chunk_p99_us", kGauge, "us"},
    {"serve.sessions_per_sec", kGauge, "sessions/s"},
    {"serve.ttfp_p50_us", kGauge, "us"},
    {"serve.ttfp_p95_us", kGauge, "us"},
};

} // namespace

const char *
flagName(bool deterministic)
{
    return deterministic ? "deterministic" : "non-deterministic";
}

const char *
kindName(MetricKind kind)
{
    constexpr const char *kNames[] = {"counter", "gauge", "histogram"};
    return kNames[static_cast<int>(kind)];
}

std::string
BucketRange::text() const
{
    if (buckets == 0)
        return "";
    char text[96];
    std::snprintf(text, sizeof(text), " over [%g, %g) in %zu buckets", lo,
                  hi, buckets);
    return text;
}

bool
MetricSpec::isPattern() const
{
    return name.find('*') != std::string_view::npos;
}

bool
MetricSpec::matches(std::string_view metric) const
{
    const std::size_t star = name.find('*');
    if (star == std::string_view::npos)
        return metric == name;
    const std::string_view head = name.substr(0, star);
    const std::string_view tail = name.substr(star + 1);
    return metric.size() > head.size() + tail.size() &&
        metric.starts_with(head) && metric.ends_with(tail);
}

std::span<const MetricSpec>
metricSpecs()
{
    return kSpecs;
}

const MetricFamily *
familyOf(std::string_view name)
{
    for (const MetricFamily &family : kFamilies) {
        if (name.starts_with(family.prefix))
            return &family;
    }
    return nullptr;
}

const MetricSpec *
findMetricSpec(std::string_view name)
{
    for (const MetricSpec &spec : kSpecs) {
        if (spec.matches(name))
            return &spec;
    }
    return nullptr;
}

Status
checkMetric(std::string_view name, MetricKind kind, std::string_view unit,
            bool deterministic)
{
    if (!familyOf(name))
        return Status::ok();
    const std::string metric = "metric '" + std::string(name) + "'";
    const MetricSpec *spec = findMetricSpec(name);
    if (!spec) {
        return Status::error(metric + " is not in the metric table (" +
                             kindName(kind) + ", unit '" +
                             std::string(unit) + "')");
    }
    if (spec->kind != kind) {
        return Status::error(metric + " is a " + kindName(spec->kind) +
                             " in the metric table, not a " +
                             kindName(kind));
    }
    if (spec->unit != unit) {
        return Status::error(metric + " has unit '" + std::string(unit) +
                             "', the metric table says '" +
                             std::string(spec->unit) + "'");
    }
    if (spec->flag != MetricFlag::Unchecked &&
        (spec->flag == kDet) != deterministic) {
        return Status::error(metric + " is " + flagName(deterministic) +
                             ", the metric table says " +
                             flagName(!deterministic));
    }
    return Status::ok();
}

Status
checkHistogramMetric(std::string_view name, std::string_view unit,
                     bool deterministic, const BucketRange &range)
{
    if (Status s = checkMetric(name, kHistogram, unit, deterministic); !s)
        return s;
    const MetricSpec *spec = findMetricSpec(name);
    if (!spec || spec->range == range)
        return Status::ok();
    return Status::error("metric '" + std::string(name) + "' has buckets" +
                         range.text() + ", the metric table says" +
                         spec->range.text());
}

} // namespace telemetry
} // namespace darkside
