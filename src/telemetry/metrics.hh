/**
 * @file
 * Lock-cheap metrics library: monotonic counters, fixed-bucket
 * histograms, scoped wall-clock timers and a named MetricRegistry.
 *
 * Hot-path writes go to a per-thread shard (one relaxed atomic add per
 * event, no locks after a thread's first touch of a metric); shards are
 * merged on snapshot(). Two discipline rules make snapshots
 * *thread-count-invariant* — byte-identical JSON for a 1-thread and an
 * N-thread run of the same work (the same discipline as
 * AsrSystem::runTestSet's input-order merge):
 *
 *  1. Sharded metrics (Counter, Histogram) carry only integers: counter
 *     increments and bucket counts. Integer addition is commutative and
 *     associative, so the merged totals do not depend on which thread
 *     did which chunk of the (deterministically partitioned) work.
 *     Histogram min/max are doubles, but min/max is also an exact
 *     commutative reduction.
 *  2. Floating-point *sums* (simulated seconds, joules, ratios) are
 *     Gauges: unsharded values that may only be written from a
 *     deterministic context — e.g. the strictly input-ordered merge
 *     loop of runTestSet — never from inside a worker.
 *
 * Metrics whose values are genuinely run-dependent (wall-clock timers,
 * queue waits, cache-race counters) are registered with
 * deterministic = false and are excluded from deterministic snapshots;
 * they still appear in full exports for profiling.
 *
 * The registry caps the metric namespace (kMaxCounters/kMaxHistograms)
 * so shards can preallocate flat atomic arrays and never reallocate
 * under a concurrent writer.
 */

#ifndef DARKSIDE_TELEMETRY_METRICS_HH
#define DARKSIDE_TELEMETRY_METRICS_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/status.hh"

namespace darkside {
namespace telemetry {

class MetricRegistry;
struct Snapshot;

/** Most counters/histograms a registry can hold (shards preallocate). */
constexpr std::size_t kMaxCounters = 256;
constexpr std::size_t kMaxHistograms = 128;

/** Bucket geometry of a fixed-range linear histogram. */
struct HistogramSpec
{
    /** Lower edge of the first bucket. */
    double lo = 0.0;
    /** Upper edge of the last bucket. */
    double hi = 1.0;
    /** Number of equal-width buckets (> 0). */
    std::size_t buckets = 32;
};

/**
 * Handle to a monotonic counter. Cheap to copy; add() is one relaxed
 * atomic increment on the calling thread's shard.
 */
class Counter
{
  public:
    /** Detached handle; add() is a no-op until bound by a registry. */
    Counter() = default;

    void add(std::uint64_t n = 1) const;

  private:
    friend class MetricRegistry;
    Counter(MetricRegistry *registry, std::uint32_t id)
        : registry_(registry), id_(id)
    {}

    MetricRegistry *registry_ = nullptr;
    std::uint32_t id_ = 0;
};

/**
 * Handle to a fixed-bucket histogram. observe() increments one bucket
 * count and folds the sample into the exact min/max.
 */
class Histogram
{
  public:
    /** Detached handle; observe() is a no-op until bound. */
    Histogram() = default;

    void observe(double x) const;

  private:
    friend class MetricRegistry;
    friend class ScopedTimer;
    Histogram(MetricRegistry *registry, std::uint32_t id)
        : registry_(registry), id_(id)
    {}

    MetricRegistry *registry_ = nullptr;
    std::uint32_t id_ = 0;
};

/**
 * RAII wall-clock timer: observes the elapsed microseconds into a
 * histogram at scope exit. Timer histograms should be registered with
 * deterministic = false — wall time is never thread-count-invariant.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(const Histogram &hist)
        : hist_(hist), start_(std::chrono::steady_clock::now())
    {}

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    ~ScopedTimer()
    {
        const auto elapsed = std::chrono::steady_clock::now() - start_;
        hist_.observe(
            std::chrono::duration<double, std::micro>(elapsed).count());
    }

  private:
    Histogram hist_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * Named registry of counters, histograms and gauges.
 *
 * Registration (counter()/histogram()) takes a mutex and is idempotent:
 * re-registering a name returns the existing metric (the unit, spec and
 * determinism flag must match). A name new to the registry must agree
 * with the metric table (telemetry/metric_spec.hh) when it falls under
 * one of the table's families; a mismatch panics and names the metric.
 * Recording through the returned handles is lock-free after the
 * calling thread's first touch.
 */
class MetricRegistry
{
  public:
    MetricRegistry();
    ~MetricRegistry();

    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /** The process-wide registry the pipeline records into. */
    static MetricRegistry &global();

    /**
     * Register (or look up) a counter.
     * @param name dotted lowercase path, e.g. "search.frames"
     * @param unit unit label for reports, e.g. "frames"
     * @param deterministic false for values that legitimately vary
     *        run-to-run (wall time, scheduling races)
     */
    Counter counter(const std::string &name, const std::string &unit,
                    bool deterministic = true);

    /** Register (or look up) a histogram. */
    Histogram histogram(const std::string &name, const std::string &unit,
                        const HistogramSpec &spec,
                        bool deterministic = true);

    /**
     * Set a gauge to a value. Gauges are unsharded doubles for
     * deterministic single-threaded contexts only (setup constants,
     * input-order merge results) — never call from a worker thread.
     */
    void setGauge(const std::string &name, const std::string &unit,
                  double value);

    /** Accumulate into a gauge (same discipline as setGauge). */
    void addGauge(const std::string &name, const std::string &unit,
                  double delta);

    /**
     * Merge every shard into one consistent view. Take snapshots at
     * quiescence (no concurrent recorders) when byte-exact output
     * matters.
     */
    Snapshot snapshot() const;

    /**
     * Replay a Snapshot::deltaSince delta into this registry:
     * counters and histograms are registered (if new) and their
     * values/bucket counts added on the calling thread's shard;
     * histogram min/max are folded (skipped for empty deltas, whose
     * extrema are sentinels). Gauges in the delta are ignored — their
     * producers republish them idempotently. This is how a resumed
     * run reproduces the telemetry of the work it skipped
     * (docs/STORE.md).
     *
     * Every entry is checked before any is registered: against the
     * live registration of its name (unit, flag, histogram range and
     * buckets), or for a new name against the metric table. A journal
     * unit written by a build with another metric set fails here; the
     * registry is left untouched and the caller recomputes the unit.
     */
    Status apply(const Snapshot &delta);

    /** Zero every value; registrations (names, specs) survive. */
    void reset();

  private:
    friend class Counter;
    friend class Histogram;

    struct CounterInfo
    {
        std::string name;
        std::string unit;
        bool deterministic = true;
    };

    struct HistogramInfo
    {
        std::string name;
        std::string unit;
        HistogramSpec spec;
        bool deterministic = true;
    };

    /** Per-thread histogram storage: buckets + underflow/overflow. */
    struct HistShard
    {
        explicit HistShard(std::size_t buckets);

        std::vector<std::atomic<std::uint64_t>> counts;
        std::atomic<std::uint64_t> underflow{0};
        std::atomic<std::uint64_t> overflow{0};
        std::atomic<double> min;
        std::atomic<double> max;
    };

    /** One thread's flat slice of every metric. */
    struct Shard
    {
        std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
        std::array<std::atomic<HistShard *>, kMaxHistograms> hists{};

        ~Shard();
    };

    using Index = std::unordered_map<std::string, std::uint32_t>;

    /** Registering `name` this way agrees with `live`, its index entry,
     *  or when it has none (end()) with the metric table. Caller holds
     *  mutex_. */
    Status checkCounter(Index::const_iterator live, const std::string &name,
                        const std::string &unit, bool deterministic) const;
    Status checkHistogram(Index::const_iterator live,
                          const std::string &name, const std::string &unit,
                          const HistogramSpec &spec,
                          bool deterministic) const;

    void counterAdd(std::uint32_t id, std::uint64_t n);
    void histObserve(std::uint32_t id, double x);
    Shard &localShard();
    HistShard &histShard(Shard &shard, std::uint32_t id);

    mutable std::mutex mutex_;
    std::vector<CounterInfo> counters_;
    Index counterIndex_;
    std::vector<HistogramInfo> hists_;
    Index histIndex_;

    struct Gauge
    {
        std::string unit;
        double value = 0.0;
    };
    /** Gauge `name`, table-checked when new. Caller holds mutex_. */
    Gauge &gauge(const std::string &name, const std::string &unit);
    std::map<std::string, Gauge> gauges_;

    /** Shards live until reset()/destruction, surviving thread exit. */
    std::vector<std::unique_ptr<Shard>> shards_;
    std::map<std::thread::id, Shard *> shardByThread_;
};

} // namespace telemetry
} // namespace darkside

#endif // DARKSIDE_TELEMETRY_METRICS_HH
