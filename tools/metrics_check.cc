/**
 * @file
 * metrics_check — validator for darkside-metrics-v1 JSON files (the
 * --metrics output of the CLI and the benches). CI runs it over freshly
 * produced snapshots so an exporter or producer regression fails the
 * build rather than silently producing unreadable artefacts.
 *
 * Checks, per file (docs/METRICS.md "The metric table"):
 *   - Snapshot::parseJson accepts it (schema, member types, lo < hi,
 *     count == underflow + overflow + sum(buckets))
 *   - no unknown top-level member; names strictly increasing in each
 *     section; histogram min <= max when count > 0
 *   - every name matches an entry of the metric table
 *     (telemetry/metric_spec.hh), and a complete family present in any
 *     section has all of its counters and histograms
 *   - the ledger identities of kIdentities
 *   - every fault.injected.<probe> names a registered probe point with
 *     its determinism flag, and fault.injected equals their sum over
 *     deterministic probes
 *
 * With --expect-faults, a file whose fault.injected.* total is zero
 * (or absent) fails — CI uses this to prove a fault plan actually
 * fired.
 *
 * With --diff, two snapshots are compared instead of validated: every
 * deterministic counter and histogram, and every gauge, must match
 * exactly after dropping metrics whose name starts with an --ignore
 * prefix. CI uses this to prove a killed-and-resumed sweep reproduced
 * an uninterrupted run's aggregates bit-identically.
 *
 * usage: metrics_check [--expect-faults] <file.json> [more.json ...]
 *        metrics_check --diff <a.json> <b.json> [--ignore p1,p2,...]
 *                      [--require p1,p2,...]
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hh"
#include "telemetry/metric_spec.hh"
#include "telemetry/snapshot.hh"
#include "util/json.hh"

namespace {

namespace dt = darkside::telemetry;

int failures = 0;
const char *current_file = "";

void
fail(const std::string &what)
{
    std::fprintf(stderr, "%s: %s\n", current_file, what.c_str());
    ++failures;
}

/** The snapshot in `path` (its text in `text`), or nullopt, reported. */
std::optional<dt::Snapshot>
load(const char *path, std::string &text)
{
    current_file = path;
    std::ifstream is(path);
    if (!is) {
        fail("cannot open");
        return std::nullopt;
    }
    text.assign(std::istreambuf_iterator<char>(is), {});
    auto parsed = dt::Snapshot::parseJson(text);
    if (!parsed.isOk()) {
        fail(parsed.message());
        return std::nullopt;
    }
    return parsed.take();
}

/**
 * A ledger rule: the sum of `lhs` is `op` ("==" or "<=") `rhs`. An
 * operand is a counter's value or a histogram's sample count.
 */
struct Identity
{
    std::vector<std::string_view> lhs;
    std::string_view op;
    std::string_view rhs;
};

const Identity kIdentities[] = {
    // GC only reclaims nodes the arena allocated.
    {{"decode.trace.collected"}, "<=", "decode.trace.allocated"},
    // Every lookup is one hit or one miss; entries are inserted only
    // after a miss, and only inserted entries are evicted.
    {{"dnn.cache.hit", "dnn.cache.miss"}, "==", "dnn.cache.lookup"},
    {{"dnn.cache.insert"}, "<=", "dnn.cache.miss"},
    {{"dnn.cache.evict"}, "<=", "dnn.cache.insert"},
    // Every offer is admitted or shed, for one counted cause; every
    // admitted session completes or degrades.
    {{"serve.sessions.admitted", "serve.sessions.shed"}, "==",
     "serve.sessions.offered"},
    {{"serve.sessions.completed", "serve.sessions.degraded"}, "==",
     "serve.sessions.admitted"},
    {{"serve.shed.queue", "serve.shed.deadline", "serve.shed.length",
      "serve.shed.breaker", "serve.shed.injected", "serve.drain.refused"},
     "==", "serve.sessions.shed"},
    // One latency sample per chunk.
    {{"serve.chunk_latency_us"}, "==", "serve.chunks"},
};

std::optional<std::uint64_t>
operand(const dt::Snapshot &snap, std::string_view name)
{
    const std::string key(name);
    if (const dt::CounterSample *c = snap.findCounter(key))
        return c->value;
    if (const dt::HistogramSample *h = snap.findHistogram(key))
        return h->count;
    return std::nullopt;
}

void
checkIdentities(const dt::Snapshot &snap)
{
    for (const Identity &rule : kIdentities) {
        std::string text;
        std::uint64_t sum = 0;
        bool present = true;
        for (const std::string_view name : rule.lhs) {
            const auto value = operand(snap, name);
            present &= value.has_value();
            sum += value.value_or(0);
            text += (text.empty() ? "" : " + ") + std::string(name);
        }
        const auto rhs = operand(snap, rule.rhs);
        if (!present || !rhs)
            continue;
        if (rule.op == "==" ? sum != *rhs : sum > *rhs) {
            fail(text + " " + std::string(rule.op) + " " +
                 std::string(rule.rhs) + " does not hold (" +
                 std::to_string(sum) + " vs " + std::to_string(*rhs) +
                 ")");
        }
    }
}

/**
 * Every name under a family and matching its entry; every counter and
 * histogram of a complete family present once any member is.
 */
void
checkTable(const dt::Snapshot &snap)
{
    std::set<const dt::MetricFamily *> present;
    const auto visit = [&](const std::string &name, dt::MetricKind kind,
                           const std::string &unit, bool deterministic) {
        const dt::MetricFamily *family = dt::familyOf(name);
        if (!family) {
            fail("metric '" + name + "' is under no family of the " +
                 "metric table");
            return;
        }
        present.insert(family);
        if (const auto ok = dt::checkMetric(name, kind, unit, deterministic);
            !ok)
            fail(ok.message());
    };
    for (const auto &c : snap.counters)
        visit(c.name, dt::MetricKind::Counter, c.unit, c.deterministic);
    for (const auto &g : snap.gauges)
        visit(g.name, dt::MetricKind::Gauge, g.unit, true);
    for (const auto &h : snap.histograms)
        visit(h.name, dt::MetricKind::Histogram, h.unit, h.deterministic);

    for (const dt::MetricFamily *family : present) {
        if (!family->complete)
            continue;
        for (const dt::MetricSpec &spec : dt::metricSpecs()) {
            if (!spec.name.starts_with(family->prefix) ||
                spec.isPattern() || spec.kind == dt::MetricKind::Gauge)
                continue;
            const std::string name(spec.name);
            const bool found = spec.kind == dt::MetricKind::Counter
                ? snap.findCounter(name) != nullptr
                : snap.findHistogram(name) != nullptr;
            if (!found) {
                fail("family '" + std::string(family->prefix) +
                     "' is present but " + dt::kindName(spec.kind) +
                     " '" + name + "' is missing");
            }
        }
    }
}

/** The fault.injected.<probe> counters against the probe registry. */
void
checkFaults(const dt::Snapshot &snap, bool expect_faults)
{
    const std::string prefix = "fault.injected.";
    std::uint64_t deterministic_sum = 0, total = 0;
    bool sum_valid = true;
    for (const auto &c : snap.counters) {
        if (!c.name.starts_with(prefix))
            continue;
        const std::string probe_name = c.name.substr(prefix.size());
        const darkside::ProbePoint *probe = darkside::findProbe(probe_name);
        if (!probe) {
            fail(c.name + ": '" + probe_name +
                 "' is not a registered probe point");
            sum_valid = false;
            continue;
        }
        if (c.deterministic != probe->deterministic)
            fail(c.name + ": determinism flag disagrees with the probe "
                          "registry");
        total += c.value;
        deterministic_sum += probe->deterministic ? c.value : 0;
    }
    const dt::CounterSample *injected = snap.findCounter("fault.injected");
    if (sum_valid && injected && injected->value != deterministic_sum) {
        fail("fault.injected != sum of fault.injected.<probe> over "
             "deterministic probes");
    }
    if (expect_faults && total == 0)
        fail("--expect-faults: no faults were injected");
}

template <typename Sample>
void
checkSorted(const std::vector<Sample> &section, const char *key)
{
    for (std::size_t i = 1; i < section.size(); ++i) {
        if (section[i].name <= section[i - 1].name) {
            fail(std::string(key) + ": names not sorted/unique at '" +
                 section[i].name + "'");
        }
    }
}

void
checkFile(const char *path, bool expect_faults)
{
    std::string text;
    const auto loaded = load(path, text);
    if (!loaded)
        return;
    // The parser reads the four members it knows and ignores others.
    const darkside::JsonValue root = darkside::JsonValue::parse(text);
    for (const auto &[key, value] : root.asObject()) {
        if (key != "schema" && key != "counters" && key != "gauges" &&
            key != "histograms") {
            fail("unexpected top-level member '" + key + "'");
        }
    }
    const dt::Snapshot &snap = *loaded;
    checkSorted(snap.counters, "counters");
    checkSorted(snap.gauges, "gauges");
    checkSorted(snap.histograms, "histograms");
    for (const auto &h : snap.histograms) {
        if (h.count > 0 && h.min > h.max)
            fail(h.name + ": min > max with samples present");
    }
    checkTable(snap);
    checkIdentities(snap);
    checkFaults(snap, expect_faults);
}

// --- --diff mode --------------------------------------------------------

/**
 * Compare one section of two snapshots name by name: names in only one
 * file, and samples `differs` describes (": how", or "" when equal).
 * @return how many names both files have
 */
template <typename Sample, typename Differs, typename Note>
std::size_t
diffSection(const std::vector<Sample> &a, const std::vector<Sample> &b,
            const std::string &kind, const Differs &differs,
            const Note &note)
{
    std::map<std::string, const Sample *> only_a;
    for (const Sample &s : a)
        only_a[s.name] = &s;
    std::size_t compared = 0;
    for (const Sample &s : b) {
        auto it = only_a.find(s.name);
        if (it == only_a.end()) {
            note(kind + " '" + s.name + "' only in second file");
            continue;
        }
        const std::string how = differs(*it->second, s);
        if (!how.empty())
            note(kind + " '" + s.name + "'" + how);
        only_a.erase(it);
        ++compared;
    }
    for (const auto &[name, s] : only_a)
        note(kind + " '" + name + "' only in first file");
    return compared;
}

int
diffSnapshots(const char *path_a, const char *path_b,
              const std::vector<std::string> &ignore,
              const std::vector<std::string> &require)
{
    std::string text;
    std::optional<dt::Snapshot> raw_a, raw_b;
    if (!(raw_a = load(path_a, text)) || !(raw_b = load(path_b, text)))
        return 1;
    current_file = path_b;
    // Deterministic metrics and gauges are the reproducibility
    // contract; non-deterministic ones (wall time, cache races) are
    // expected to differ between any two runs.
    const dt::Snapshot a = raw_a->deterministic().withoutPrefixes(ignore);
    const dt::Snapshot b = raw_b->deterministic().withoutPrefixes(ignore);

    const auto note = [&](const std::string &what) {
        fail(std::string("differs from ") + path_a + ": " + what);
    };
    const auto values = [](const auto &x, const auto &y) {
        return x.value == y.value
            ? std::string()
            : ": " + std::to_string(x.value) + " != " +
                std::to_string(y.value);
    };

    // --require: counters matching these prefixes must match exactly
    // even when flagged non-deterministic — the resume acceptance uses
    // it for the serve session ledger, which replay reproduces
    // bit-identically although concurrency makes it nondet-flagged.
    // Compared on the raw snapshots, before the deterministic filter.
    if (!require.empty()) {
        const auto required = [&](const dt::Snapshot &raw) {
            std::vector<dt::CounterSample> out;
            for (const auto &c : raw.counters) {
                for (const auto &p : require) {
                    if (c.name.starts_with(p)) {
                        out.push_back(c);
                        break;
                    }
                }
            }
            return out;
        };
        if (diffSection(required(*raw_a), required(*raw_b),
                        "required counter", values, note) == 0)
            note("no counter matched any --require prefix");
    }

    diffSection(a.counters, b.counters, "counter", values, note);
    diffSection(a.gauges, b.gauges, "gauge", values, note);
    diffSection(
        a.histograms, b.histograms, "histogram",
        [](const dt::HistogramSample &o, const dt::HistogramSample &h) {
            const bool same = o.count == h.count &&
                o.underflow == h.underflow && o.overflow == h.overflow &&
                o.buckets == h.buckets && o.min == h.min &&
                o.max == h.max;
            return std::string(same ? "" : " differs");
        },
        note);

    if (failures > 0) {
        std::fprintf(stderr, "%d difference(s) found\n", failures);
        return 1;
    }
    std::printf("snapshots match (%zu counters, %zu gauges, "
                "%zu histograms compared)\n",
                b.counters.size(), b.gauges.size(),
                b.histograms.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--diff") == 0) {
        const auto split = [](const char *arg,
                              std::vector<std::string> &out) {
            std::stringstream prefixes(arg);
            for (std::string p; std::getline(prefixes, p, ',');) {
                if (!p.empty())
                    out.push_back(p);
            }
        };
        std::vector<std::string> ignore, require;
        bool usage_ok = argc >= 4;
        for (int i = 4; i < argc; i += 2) {
            if (i + 1 < argc && std::strcmp(argv[i], "--ignore") == 0)
                split(argv[i + 1], ignore);
            else if (i + 1 < argc &&
                     std::strcmp(argv[i], "--require") == 0)
                split(argv[i + 1], require);
            else
                usage_ok = false;
        }
        if (!usage_ok) {
            std::fprintf(stderr,
                         "usage: metrics_check --diff <a.json> "
                         "<b.json> [--ignore p1,p2,...] "
                         "[--require p1,p2,...]\n");
            return 2;
        }
        return diffSnapshots(argv[2], argv[3], ignore, require);
    }

    const bool expect_faults =
        argc > 1 && std::strcmp(argv[1], "--expect-faults") == 0;
    const int first_file = expect_faults ? 2 : 1;
    if (first_file >= argc) {
        std::fprintf(stderr,
                     "usage: metrics_check [--expect-faults] "
                     "<file.json> [...]\n"
                     "       metrics_check --diff <a.json> <b.json> "
                     "[--ignore p1,p2,...] [--require p1,p2,...]\n");
        return 2;
    }
    for (int i = first_file; i < argc; ++i)
        checkFile(argv[i], expect_faults);
    if (failures > 0) {
        std::fprintf(stderr, "%d problem(s) found\n", failures);
        return 1;
    }
    std::printf("%d file(s) OK\n", argc - first_file);
    return 0;
}
