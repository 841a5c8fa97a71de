#include "telemetry/metrics.hh"

#include <cmath>
#include <limits>

#include "telemetry/metric_spec.hh"
#include "telemetry/snapshot.hh"
#include "util/logging.hh"

namespace darkside {
namespace telemetry {

namespace {

/** Unique id per registry instance, never reused, so a stale
 *  thread-local shard cache can never alias a new registry that the
 *  allocator placed at a recycled address. */
std::atomic<std::uint64_t> next_registry_serial{1};

struct TlsCache
{
    std::uint64_t serial = 0;
    /** MetricRegistry::Shard, opaque here (the type is private). */
    void *shard = nullptr;
};

thread_local TlsCache tls_shard;

/** Registry serials are stored per instance via this side table keyed
 *  by address-identity; a member would do, but keeping the serial out
 *  of the header keeps the ABI of the public type stable. */
struct SerialTable
{
    std::mutex mutex;
    std::map<const MetricRegistry *, std::uint64_t> serials;
};

SerialTable &
serialTable()
{
    // Immortal (reachable, so leak-clean): registry destructors call in
    // here, and a registry with static storage may be destroyed after
    // any static table would have been.
    static SerialTable *const table = new SerialTable;
    return *table;
}

std::uint64_t
serialOf(const MetricRegistry *registry)
{
    SerialTable &table = serialTable();
    std::lock_guard<std::mutex> lock(table.mutex);
    auto it = table.serials.find(registry);
    if (it == table.serials.end()) {
        it = table.serials
                 .emplace(registry, next_registry_serial.fetch_add(1))
                 .first;
    }
    return it->second;
}

/** Forget a destroyed registry's serial: a later registry recycling
 *  the same address must get a fresh serial, or a thread's cached
 *  shard pointer for the dead registry would be taken for current. */
void
releaseSerial(const MetricRegistry *registry)
{
    SerialTable &table = serialTable();
    std::lock_guard<std::mutex> lock(table.mutex);
    table.serials.erase(registry);
}

void
atomicMin(std::atomic<double> &slot, double x)
{
    double cur = slot.load(std::memory_order_relaxed);
    while (x < cur &&
           !slot.compare_exchange_weak(cur, x,
                                       std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<double> &slot, double x)
{
    double cur = slot.load(std::memory_order_relaxed);
    while (x > cur &&
           !slot.compare_exchange_weak(cur, x,
                                       std::memory_order_relaxed)) {
    }
}

} // namespace

// --- handles ------------------------------------------------------------

void
Counter::add(std::uint64_t n) const
{
    if (registry_ && n != 0)
        registry_->counterAdd(id_, n);
}

void
Histogram::observe(double x) const
{
    if (registry_)
        registry_->histObserve(id_, x);
}

// --- shards -------------------------------------------------------------

MetricRegistry::HistShard::HistShard(std::size_t buckets)
    : counts(buckets),
      min(std::numeric_limits<double>::infinity()),
      max(-std::numeric_limits<double>::infinity())
{}

MetricRegistry::Shard::~Shard()
{
    for (auto &slot : hists)
        delete slot.load(std::memory_order_relaxed);
}

MetricRegistry::MetricRegistry()
{
    // Fixed capacity: the info vectors never reallocate, so the hot
    // path may read an entry's immutable spec without the mutex.
    counters_.reserve(kMaxCounters);
    hists_.reserve(kMaxHistograms);
}

MetricRegistry::~MetricRegistry()
{
    releaseSerial(this);
}

MetricRegistry &
MetricRegistry::global()
{
    // Immortal for the same reason: instrumented code (thread pools,
    // engines) may record during static destruction.
    static MetricRegistry *const registry = new MetricRegistry;
    return *registry;
}

MetricRegistry::Shard &
MetricRegistry::localShard()
{
    const std::uint64_t serial = serialOf(this);
    if (tls_shard.serial == serial)
        return *static_cast<Shard *>(tls_shard.shard);

    std::lock_guard<std::mutex> lock(mutex_);
    const auto id = std::this_thread::get_id();
    auto it = shardByThread_.find(id);
    if (it == shardByThread_.end()) {
        shards_.push_back(std::make_unique<Shard>());
        it = shardByThread_.emplace(id, shards_.back().get()).first;
    }
    tls_shard = {serial, it->second};
    return *it->second;
}

MetricRegistry::HistShard &
MetricRegistry::histShard(Shard &shard, std::uint32_t id)
{
    HistShard *slot = shard.hists[id].load(std::memory_order_acquire);
    if (slot)
        return *slot;
    // First touch of this histogram on this thread: allocate the slot.
    // Only the owning thread creates it (a shard has one writer), so a
    // release store suffices for the snapshot reader.
    slot = new HistShard(hists_[id].spec.buckets);
    shard.hists[id].store(slot, std::memory_order_release);
    return *slot;
}

void
MetricRegistry::counterAdd(std::uint32_t id, std::uint64_t n)
{
    localShard().counters[id].fetch_add(n, std::memory_order_relaxed);
}

void
MetricRegistry::histObserve(std::uint32_t id, double x)
{
    Shard &shard = localShard();
    HistShard &h = histShard(shard, id);

    // Immutable after registration; the info vector never reallocates
    // (capacity is reserved up front), so no lock is needed here.
    const HistogramSpec *spec = &hists_[id].spec;
    if (x < spec->lo) {
        h.underflow.fetch_add(1, std::memory_order_relaxed);
    } else if (x >= spec->hi) {
        h.overflow.fetch_add(1, std::memory_order_relaxed);
    } else {
        const double width =
            (spec->hi - spec->lo) / static_cast<double>(h.counts.size());
        auto bucket = static_cast<std::size_t>((x - spec->lo) / width);
        if (bucket >= h.counts.size())
            bucket = h.counts.size() - 1; // FP edge rounding
        h.counts[bucket].fetch_add(1, std::memory_order_relaxed);
    }
    atomicMin(h.min, x);
    atomicMax(h.max, x);
}

// --- registration -------------------------------------------------------

namespace {

void
orPanic(const Status &status)
{
    if (!status)
        panic("%s", status.message().c_str());
}

Status
registeredAs(const std::string &name, const std::string &unit,
             bool deterministic, const BucketRange &range = {})
{
    return Status::error("metric '" + name + "' is registered with unit '" +
                         unit + "'" + range.text() + ", " +
                         flagName(deterministic));
}

} // namespace

Status
MetricRegistry::checkCounter(Index::const_iterator live,
                             const std::string &name,
                             const std::string &unit,
                             bool deterministic) const
{
    if (live == counterIndex_.end())
        return checkMetric(name, MetricKind::Counter, unit, deterministic);
    const CounterInfo &info = counters_[live->second];
    if (info.unit == unit && info.deterministic == deterministic)
        return Status::ok();
    return registeredAs(name, info.unit, info.deterministic);
}

Status
MetricRegistry::checkHistogram(Index::const_iterator live,
                               const std::string &name,
                               const std::string &unit,
                               const HistogramSpec &spec,
                               bool deterministic) const
{
    const BucketRange range{spec.lo, spec.hi, spec.buckets};
    if (live != histIndex_.end()) {
        const HistogramInfo &info = hists_[live->second];
        const BucketRange registered{info.spec.lo, info.spec.hi,
                                     info.spec.buckets};
        if (info.unit == unit && info.deterministic == deterministic &&
            registered == range)
            return Status::ok();
        return registeredAs(name, info.unit, info.deterministic,
                            registered);
    }
    if (spec.buckets == 0 || !(spec.lo < spec.hi)) {
        return Status::error("metric '" + name +
                             "' has an empty bucket range");
    }
    return checkHistogramMetric(name, unit, deterministic, range);
}

Counter
MetricRegistry::counter(const std::string &name, const std::string &unit,
                        bool deterministic)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counterIndex_.find(name);
    orPanic(checkCounter(it, name, unit, deterministic));
    if (it == counterIndex_.end()) {
        ds_assert(counters_.size() < kMaxCounters);
        it = counterIndex_
                 .emplace(name, static_cast<std::uint32_t>(counters_.size()))
                 .first;
        counters_.push_back({name, unit, deterministic});
    }
    return Counter(this, it->second);
}

Histogram
MetricRegistry::histogram(const std::string &name,
                          const std::string &unit,
                          const HistogramSpec &spec, bool deterministic)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histIndex_.find(name);
    orPanic(checkHistogram(it, name, unit, spec, deterministic));
    if (it == histIndex_.end()) {
        ds_assert(hists_.size() < kMaxHistograms);
        it = histIndex_
                 .emplace(name, static_cast<std::uint32_t>(hists_.size()))
                 .first;
        hists_.push_back({name, unit, spec, deterministic});
    }
    return Histogram(this, it->second);
}

MetricRegistry::Gauge &
MetricRegistry::gauge(const std::string &name, const std::string &unit)
{
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        orPanic(checkMetric(name, MetricKind::Gauge, unit, true));
        it = gauges_.emplace(name, Gauge{}).first;
    }
    it->second.unit = unit;
    return it->second;
}

void
MetricRegistry::setGauge(const std::string &name, const std::string &unit,
                         double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    gauge(name, unit).value = value;
}

void
MetricRegistry::addGauge(const std::string &name, const std::string &unit,
                         double delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    gauge(name, unit).value += delta;
}

Status
MetricRegistry::apply(const Snapshot &delta)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &c : delta.counters) {
            if (Status s = checkCounter(counterIndex_.find(c.name), c.name,
                                        c.unit, c.deterministic);
                !s)
                return s;
        }
        for (const auto &h : delta.histograms) {
            if (Status s = checkHistogram(
                    histIndex_.find(h.name), h.name, h.unit,
                    HistogramSpec{h.lo, h.hi, h.buckets.size()},
                    h.deterministic);
                !s)
                return s;
        }
    }

    for (const auto &c : delta.counters) {
        // Registration is the point even when the delta is zero: a
        // replayed unit must leave the same metric names behind as
        // the live run it stands in for.
        counter(c.name, c.unit, c.deterministic).add(c.value);
    }
    for (const auto &h : delta.histograms) {
        const Histogram handle =
            histogram(h.name, h.unit,
                      HistogramSpec{h.lo, h.hi, h.buckets.size()},
                      h.deterministic);
        Shard &shard = localShard();
        HistShard &hs = histShard(shard, handle.id_);
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
            if (h.buckets[b] != 0) {
                hs.counts[b].fetch_add(h.buckets[b],
                                       std::memory_order_relaxed);
            }
        }
        if (h.underflow != 0) {
            hs.underflow.fetch_add(h.underflow,
                                   std::memory_order_relaxed);
        }
        if (h.overflow != 0)
            hs.overflow.fetch_add(h.overflow,
                                  std::memory_order_relaxed);
        if (h.count > 0) {
            atomicMin(hs.min, h.min);
            atomicMax(hs.max, h.max);
        }
    }
    return Status::ok();
}

// --- snapshot / reset ---------------------------------------------------

Snapshot
MetricRegistry::snapshot() const
{
    Snapshot snap;
    std::lock_guard<std::mutex> lock(mutex_);

    for (std::uint32_t id = 0; id < counters_.size(); ++id) {
        CounterSample s;
        s.name = counters_[id].name;
        s.unit = counters_[id].unit;
        s.deterministic = counters_[id].deterministic;
        s.value = 0;
        for (const auto &shard : shards_) {
            s.value += shard->counters[id].load(
                std::memory_order_relaxed);
        }
        snap.counters.push_back(std::move(s));
    }

    for (std::uint32_t id = 0; id < hists_.size(); ++id) {
        const HistogramInfo &info = hists_[id];
        HistogramSample s;
        s.name = info.name;
        s.unit = info.unit;
        s.deterministic = info.deterministic;
        s.lo = info.spec.lo;
        s.hi = info.spec.hi;
        s.buckets.assign(info.spec.buckets, 0);
        s.min = std::numeric_limits<double>::infinity();
        s.max = -std::numeric_limits<double>::infinity();
        for (const auto &shard : shards_) {
            const HistShard *h =
                shard->hists[id].load(std::memory_order_acquire);
            if (!h)
                continue;
            for (std::size_t b = 0; b < s.buckets.size(); ++b) {
                s.buckets[b] +=
                    h->counts[b].load(std::memory_order_relaxed);
            }
            s.underflow +=
                h->underflow.load(std::memory_order_relaxed);
            s.overflow += h->overflow.load(std::memory_order_relaxed);
            s.min = std::min(s.min,
                             h->min.load(std::memory_order_relaxed));
            s.max = std::max(s.max,
                             h->max.load(std::memory_order_relaxed));
        }
        s.count = s.underflow + s.overflow;
        for (const std::uint64_t b : s.buckets)
            s.count += b;
        if (s.count == 0) {
            s.min = 0.0;
            s.max = 0.0;
        }
        snap.histograms.push_back(std::move(s));
    }

    for (const auto &[name, gauge] : gauges_) {
        GaugeSample s;
        s.name = name;
        s.unit = gauge.unit;
        s.value = gauge.value;
        snap.gauges.push_back(std::move(s));
    }

    snap.sortByName();
    return snap;
}

void
MetricRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_) {
        for (auto &c : shard->counters)
            c.store(0, std::memory_order_relaxed);
        for (auto &slot : shard->hists) {
            HistShard *h = slot.load(std::memory_order_acquire);
            if (!h)
                continue;
            for (auto &b : h->counts)
                b.store(0, std::memory_order_relaxed);
            h->underflow.store(0, std::memory_order_relaxed);
            h->overflow.store(0, std::memory_order_relaxed);
            h->min.store(std::numeric_limits<double>::infinity(),
                         std::memory_order_relaxed);
            h->max.store(-std::numeric_limits<double>::infinity(),
                         std::memory_order_relaxed);
        }
    }
    gauges_.clear();
}

} // namespace telemetry
} // namespace darkside
