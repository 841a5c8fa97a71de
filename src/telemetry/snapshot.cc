#include "telemetry/snapshot.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/csv.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace darkside {
namespace telemetry {

const char *const kSchemaName = "darkside-metrics-v1";

namespace {

/** Shortest round-trippable decimal form, locale-independent. */
std::string
formatDouble(double x)
{
    char buf[64];
    // %.17g round-trips any double; try the shorter %.15g first so the
    // common case stays readable.
    std::snprintf(buf, sizeof(buf), "%.15g", x);
    if (std::strtod(buf, nullptr) != x)
        std::snprintf(buf, sizeof(buf), "%.17g", x);
    return buf;
}

std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

double
HistogramSample::quantile(double p) const
{
    if (count == 0)
        return 0.0;
    const auto target = static_cast<std::uint64_t>(
        p * static_cast<double>(count - 1));
    std::uint64_t seen = underflow;
    if (target < seen)
        return min;
    const double width =
        (hi - lo) / static_cast<double>(buckets.size());
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        seen += buckets[b];
        if (target < seen)
            return lo + (static_cast<double>(b) + 0.5) * width;
    }
    return max;
}

double
HistogramSample::approxMean() const
{
    if (count == 0)
        return 0.0;
    const double width =
        (hi - lo) / static_cast<double>(buckets.size());
    double sum = static_cast<double>(underflow) * min +
        static_cast<double>(overflow) * max;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        sum += static_cast<double>(buckets[b]) *
            (lo + (static_cast<double>(b) + 0.5) * width);
    }
    return sum / static_cast<double>(count);
}

Snapshot
Snapshot::deterministic() const
{
    Snapshot out;
    for (const auto &c : counters) {
        if (c.deterministic)
            out.counters.push_back(c);
    }
    out.gauges = gauges;
    for (const auto &h : histograms) {
        if (h.deterministic)
            out.histograms.push_back(h);
    }
    return out;
}

Snapshot
Snapshot::deltaSince(const Snapshot &before) const
{
    Snapshot out;
    for (const auto &c : counters) {
        CounterSample d = c;
        if (const CounterSample *prev = before.findCounter(c.name)) {
            ds_assert(prev->value <= c.value);
            d.value = c.value - prev->value;
        }
        out.counters.push_back(std::move(d));
    }
    for (const auto &h : histograms) {
        HistogramSample d = h;
        if (const HistogramSample *prev =
                before.findHistogram(h.name)) {
            ds_assert(prev->buckets.size() == h.buckets.size());
            d.underflow = h.underflow - prev->underflow;
            d.overflow = h.overflow - prev->overflow;
            for (std::size_t b = 0; b < h.buckets.size(); ++b)
                d.buckets[b] = h.buckets[b] - prev->buckets[b];
            d.count = h.count - prev->count;
        }
        if (d.count == 0) {
            d.min = 0.0;
            d.max = 0.0;
        }
        out.histograms.push_back(std::move(d));
    }
    return out;
}

Snapshot
Snapshot::withoutPrefixes(
    const std::vector<std::string> &prefixes) const
{
    const auto drop = [&](const std::string &name) {
        for (const std::string &p : prefixes) {
            if (name.rfind(p, 0) == 0)
                return true;
        }
        return false;
    };
    Snapshot out;
    for (const auto &c : counters) {
        if (!drop(c.name))
            out.counters.push_back(c);
    }
    for (const auto &g : gauges) {
        if (!drop(g.name))
            out.gauges.push_back(g);
    }
    for (const auto &h : histograms) {
        if (!drop(h.name))
            out.histograms.push_back(h);
    }
    return out;
}

void
Snapshot::sortByName()
{
    const auto byName = [](const auto &a, const auto &b) {
        return a.name < b.name;
    };
    std::sort(counters.begin(), counters.end(), byName);
    std::sort(gauges.begin(), gauges.end(), byName);
    std::sort(histograms.begin(), histograms.end(), byName);
}

std::string
Snapshot::toJson() const
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"" << kSchemaName << "\",\n";

    os << "  \"counters\": [";
    for (std::size_t i = 0; i < counters.size(); ++i) {
        const auto &c = counters[i];
        os << (i ? "," : "") << "\n    {\"name\": \""
           << escapeJson(c.name) << "\", \"unit\": \""
           << escapeJson(c.unit) << "\", \"deterministic\": "
           << (c.deterministic ? "true" : "false")
           << ", \"value\": " << c.value << "}";
    }
    os << (counters.empty() ? "]" : "\n  ]") << ",\n";

    os << "  \"gauges\": [";
    for (std::size_t i = 0; i < gauges.size(); ++i) {
        const auto &g = gauges[i];
        os << (i ? "," : "") << "\n    {\"name\": \""
           << escapeJson(g.name) << "\", \"unit\": \""
           << escapeJson(g.unit) << "\", \"value\": "
           << formatDouble(g.value) << "}";
    }
    os << (gauges.empty() ? "]" : "\n  ]") << ",\n";

    os << "  \"histograms\": [";
    for (std::size_t i = 0; i < histograms.size(); ++i) {
        const auto &h = histograms[i];
        os << (i ? "," : "") << "\n    {\"name\": \""
           << escapeJson(h.name) << "\", \"unit\": \""
           << escapeJson(h.unit) << "\", \"deterministic\": "
           << (h.deterministic ? "true" : "false")
           << ", \"lo\": " << formatDouble(h.lo)
           << ", \"hi\": " << formatDouble(h.hi)
           << ", \"count\": " << h.count
           << ", \"underflow\": " << h.underflow
           << ", \"overflow\": " << h.overflow
           << ", \"min\": " << formatDouble(h.min)
           << ", \"max\": " << formatDouble(h.max)
           << ",\n     \"buckets\": [";
        for (std::size_t b = 0; b < h.buckets.size(); ++b)
            os << (b ? "," : "") << h.buckets[b];
        os << "]}";
    }
    os << (histograms.empty() ? "]" : "\n  ]") << "\n}\n";
    return os.str();
}

namespace {

Status
parseError(const std::string &what)
{
    return Status::error("metrics snapshot: " + what);
}

Result<double>
numberMember(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.member(key);
    if (!v || !v->isNumber())
        return parseError(std::string("missing numeric member '") +
                          key + "'");
    return v->asNumber();
}

Result<std::uint64_t>
uintMember(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.member(key);
    if (!v || !v->isNonNegativeInteger()) {
        return parseError(std::string("member '") + key +
                          "' is not a non-negative integer");
    }
    return static_cast<std::uint64_t>(v->asNumber());
}

Result<std::string>
stringMember(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.member(key);
    if (!v || !v->isString())
        return parseError(std::string("missing string member '") +
                          key + "'");
    return v->asString();
}

Result<bool>
boolMember(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.member(key);
    if (!v || !v->isBool())
        return parseError(std::string("missing bool member '") + key +
                          "'");
    return v->asBool();
}

} // namespace

Result<Snapshot>
Snapshot::parseJson(const std::string &text)
{
    std::string error;
    const JsonValue root = JsonValue::parse(text, &error);
    if (!error.empty())
        return parseError(error);
    if (!root.isObject())
        return parseError("top level is not an object");
    const JsonValue *schema = root.member("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != kSchemaName)
        return parseError("schema is not \"darkside-metrics-v1\"");

    const auto sectionOf =
        [&](const char *key) -> Result<const std::vector<JsonValue> *> {
        const JsonValue *v = root.member(key);
        if (!v || !v->isArray())
            return parseError(std::string("missing array section '") +
                              key + "'");
        return &v->asArray();
    };

    Snapshot snap;
    auto counters = sectionOf("counters");
    if (!counters.isOk())
        return counters.status();
    for (const JsonValue &c : *counters.value()) {
        if (!c.isObject())
            return parseError("counter entry is not an object");
        CounterSample s;
        auto name = stringMember(c, "name");
        auto unit = stringMember(c, "unit");
        auto det = boolMember(c, "deterministic");
        auto value = uintMember(c, "value");
        if (!name.isOk())
            return name.status();
        if (!unit.isOk())
            return unit.status();
        if (!det.isOk())
            return det.status();
        if (!value.isOk())
            return value.status();
        s.name = name.take();
        s.unit = unit.take();
        s.deterministic = det.value();
        s.value = value.value();
        snap.counters.push_back(std::move(s));
    }

    auto gauges = sectionOf("gauges");
    if (!gauges.isOk())
        return gauges.status();
    for (const JsonValue &g : *gauges.value()) {
        if (!g.isObject())
            return parseError("gauge entry is not an object");
        GaugeSample s;
        auto name = stringMember(g, "name");
        auto unit = stringMember(g, "unit");
        auto value = numberMember(g, "value");
        if (!name.isOk())
            return name.status();
        if (!unit.isOk())
            return unit.status();
        if (!value.isOk())
            return value.status();
        s.name = name.take();
        s.unit = unit.take();
        s.value = value.value();
        snap.gauges.push_back(std::move(s));
    }

    auto hists = sectionOf("histograms");
    if (!hists.isOk())
        return hists.status();
    for (const JsonValue &h : *hists.value()) {
        if (!h.isObject())
            return parseError("histogram entry is not an object");
        HistogramSample s;
        auto name = stringMember(h, "name");
        auto unit = stringMember(h, "unit");
        auto det = boolMember(h, "deterministic");
        auto lo = numberMember(h, "lo");
        auto hi = numberMember(h, "hi");
        auto count = uintMember(h, "count");
        auto under = uintMember(h, "underflow");
        auto over = uintMember(h, "overflow");
        auto lo_sample = numberMember(h, "min");
        auto hi_sample = numberMember(h, "max");
        for (const Status *st :
             {&name.status(), &unit.status(), &det.status(),
              &lo.status(), &hi.status(), &count.status(),
              &under.status(), &over.status(), &lo_sample.status(),
              &hi_sample.status()}) {
            if (!st->isOk())
                return *st;
        }
        s.name = name.take();
        s.unit = unit.take();
        s.deterministic = det.value();
        s.lo = lo.value();
        s.hi = hi.value();
        s.count = count.value();
        s.underflow = under.value();
        s.overflow = over.value();
        s.min = lo_sample.value();
        s.max = hi_sample.value();
        if (!(s.lo < s.hi))
            return parseError(s.name + ": lo must be < hi");
        const JsonValue *buckets = h.member("buckets");
        if (!buckets || !buckets->isArray() ||
            buckets->asArray().empty())
            return parseError(s.name +
                              ": missing non-empty 'buckets' array");
        std::uint64_t total = s.underflow + s.overflow;
        for (const JsonValue &b : buckets->asArray()) {
            if (!b.isNonNegativeInteger()) {
                return parseError(
                    s.name + ": bucket is not a non-negative integer");
            }
            s.buckets.push_back(
                static_cast<std::uint64_t>(b.asNumber()));
            total += s.buckets.back();
        }
        if (total != s.count) {
            return parseError(
                s.name + ": count != underflow + overflow + "
                         "sum(buckets)");
        }
        snap.histograms.push_back(std::move(s));
    }
    return snap;
}

bool
Snapshot::writeJsonFile(const std::string &path) const
{
    std::ofstream os(path);
    os << toJson();
    return static_cast<bool>(os);
}

void
Snapshot::writeCsv(CsvWriter &csv) const
{
    csv.header({"kind", "name", "unit", "deterministic", "value",
                "count", "min", "max", "p50"});
    for (const auto &c : counters) {
        csv.row({"counter", c.name, c.unit,
                 c.deterministic ? "1" : "0", std::to_string(c.value),
                 "", "", "", ""});
    }
    for (const auto &g : gauges) {
        csv.row({"gauge", g.name, g.unit, "1", formatDouble(g.value),
                 "", "", "", ""});
    }
    for (const auto &h : histograms) {
        csv.row({"histogram", h.name, h.unit,
                 h.deterministic ? "1" : "0", "",
                 std::to_string(h.count), formatDouble(h.min),
                 formatDouble(h.max), formatDouble(h.quantile(0.5))});
    }
}

const CounterSample *
Snapshot::findCounter(const std::string &name) const
{
    for (const auto &c : counters) {
        if (c.name == name)
            return &c;
    }
    return nullptr;
}

const GaugeSample *
Snapshot::findGauge(const std::string &name) const
{
    for (const auto &g : gauges) {
        if (g.name == name)
            return &g;
    }
    return nullptr;
}

const HistogramSample *
Snapshot::findHistogram(const std::string &name) const
{
    for (const auto &h : histograms) {
        if (h.name == name)
            return &h;
    }
    return nullptr;
}

} // namespace telemetry
} // namespace darkside
