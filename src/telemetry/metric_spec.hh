/**
 * @file
 * The metric table: every metric the program registers, with its kind,
 * unit, determinism flag and (a histogram) bucket range, stated once.
 * MetricRegistry checks a name against it when the name is first
 * registered or replayed from a journal, tools/metrics_check
 * validates snapshots by walking it, and telemetry_test holds the
 * docs/METRICS.md tables to it.
 *
 * Names group into families by prefix (`serve.`, `dnn.cache.`, ...).
 * Every family is closed: a name under its prefix must match an entry.
 * A complete family also has all of its counters and histograms in any
 * snapshot that has one of its members. Names under no family (the
 * tests' ad-hoc `t.*` metrics) are not checked.
 */

#ifndef DARKSIDE_TELEMETRY_METRIC_SPEC_HH
#define DARKSIDE_TELEMETRY_METRIC_SPEC_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/status.hh"

namespace darkside {
namespace telemetry {

enum class MetricKind : std::uint8_t
{
    Counter,
    Gauge,
    Histogram,
};

/** The words snapshots and docs use: "counter", "deterministic", ... */
const char *kindName(MetricKind kind);
const char *flagName(bool deterministic);

enum class MetricFlag : std::uint8_t
{
    Deterministic,
    NonDeterministic,
    /** Gauges, which carry no flag, and `fault.injected.*`, whose flag
     *  is its probe's (findProbe in fault/fault.hh). */
    Unchecked,
};

/** A histogram's `buckets` equal buckets over [lo, hi); counters and
 *  gauges have none. */
struct BucketRange
{
    double lo = 0.0;
    double hi = 0.0;
    std::size_t buckets = 0;

    bool operator==(const BucketRange &) const = default;
    /** " over [lo, hi) in N buckets", or "" for the empty range. */
    std::string text() const;
};

struct MetricSpec
{
    /** A name, or a pattern whose one `*` stands for any non-empty
     *  text (a DNN-sim level, a fault probe). */
    std::string_view name;
    MetricKind kind;
    std::string_view unit;
    MetricFlag flag = MetricFlag::Unchecked;
    BucketRange range = {};

    bool isPattern() const;
    bool matches(std::string_view metric) const;
};

struct MetricFamily
{
    std::string_view prefix;
    bool complete;
};

std::span<const MetricSpec> metricSpecs();
/** The family `name` falls under, or nullptr. */
const MetricFamily *familyOf(std::string_view name);
/** The entry `name` matches, or nullptr. */
const MetricSpec *findMetricSpec(std::string_view name);

/**
 * Ok for a name under no family; otherwise the name must match an
 * entry of this kind, unit and (unless Unchecked) flag. The error
 * names the metric.
 */
Status checkMetric(std::string_view name, MetricKind kind,
                   std::string_view unit, bool deterministic);

/**
 * checkMetric for a histogram being registered, which must also have
 * its entry's bucket range. Snapshots are not held to the range
 * (tools/metrics_check calls checkMetric).
 */
Status checkHistogramMetric(std::string_view name, std::string_view unit,
                            bool deterministic, const BucketRange &range);

} // namespace telemetry
} // namespace darkside

#endif // DARKSIDE_TELEMETRY_METRIC_SPEC_HH
