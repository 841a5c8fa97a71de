/**
 * @file
 * Point-in-time view of a MetricRegistry and its exporters. The JSON
 * export is the repo's one machine-readable metrics schema
 * ("darkside-metrics-v1", documented in docs/METRICS.md); the CSV
 * export reuses util/csv for spreadsheet-side analysis. Output is
 * sorted by metric name and numbers are printed with a fixed format,
 * so two snapshots of identical values serialize byte-identically.
 */

#ifndef DARKSIDE_TELEMETRY_SNAPSHOT_HH
#define DARKSIDE_TELEMETRY_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hh"

namespace darkside {

class CsvWriter;

namespace telemetry {

/** The schema identifier stamped into every JSON export. */
extern const char *const kSchemaName;

/** Merged value of one counter. */
struct CounterSample
{
    std::string name;
    std::string unit;
    bool deterministic = true;
    std::uint64_t value = 0;
};

/** Value of one gauge (gauges are deterministic by contract). */
struct GaugeSample
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Merged contents of one histogram. */
struct HistogramSample
{
    std::string name;
    std::string unit;
    bool deterministic = true;
    double lo = 0.0;
    double hi = 1.0;
    std::uint64_t count = 0;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    /** Exact extrema over all samples (0 when count == 0). */
    double min = 0.0;
    double max = 0.0;
    std::vector<std::uint64_t> buckets;

    /** Approximate p-quantile (0..1) from bucket midpoints. */
    double quantile(double p) const;

    /** Approximate mean from bucket midpoints (extrema for out-of-
     *  range samples). */
    double approxMean() const;
};

/**
 * A consistent merged view of every metric in a registry.
 */
struct Snapshot
{
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;

    /** Copy holding only deterministic (thread-count-invariant)
     *  metrics; this is what reproducibility tests compare. */
    Snapshot deterministic() const;

    /**
     * Counter and histogram growth of this snapshot relative to an
     * earlier snapshot of the same registry. Every metric present in
     * *this* survives (zero-growth entries keep their registration,
     * which replay must reproduce); counter values and histogram
     * bucket/underflow/overflow counts are exact integer differences,
     * and histogram min/max carry this snapshot's fold (min/max is an
     * idempotent commutative reduction, so re-folding a prefix's
     * extremes on replay is exact). Gauges are dropped: they are
     * republished idempotently by their producers, never replayed.
     * This is the unit payload of run checkpointing (docs/STORE.md).
     */
    Snapshot deltaSince(const Snapshot &before) const;

    /** Copy without metrics whose name starts with any given prefix. */
    Snapshot withoutPrefixes(
        const std::vector<std::string> &prefixes) const;

    /** Parse a darkside-metrics-v1 document back into a Snapshot,
     *  checking the schema, member types, histogram lo < hi and count
     *  == underflow + overflow + sum(buckets). Keeps section order. */
    static Result<Snapshot> parseJson(const std::string &text);

    /** Sort all three sections by metric name (exporters require it). */
    void sortByName();

    /** Serialize as schema "darkside-metrics-v1" JSON. */
    std::string toJson() const;

    /** Write toJson() to a file. @return false on I/O failure. */
    bool writeJsonFile(const std::string &path) const;

    /** One row per metric (histograms summarized by count/min/max/p50). */
    void writeCsv(CsvWriter &csv) const;

    /** Lookup helpers for tests/reports; nullptr when absent. */
    const CounterSample *findCounter(const std::string &name) const;
    const GaugeSample *findGauge(const std::string &name) const;
    const HistogramSample *findHistogram(const std::string &name) const;
};

} // namespace telemetry
} // namespace darkside

#endif // DARKSIDE_TELEMETRY_SNAPSHOT_HH
