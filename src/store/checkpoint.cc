#include "store/checkpoint.hh"

#include "telemetry/metrics.hh"
#include "telemetry/snapshot.hh"
#include "util/pod_codec.hh"

namespace darkside {

std::string
UnitJournal::unitFileName(const std::string &unitId)
{
    std::string safe;
    safe.reserve(unitId.size());
    for (const char c : unitId) {
        const bool keep = (c >= 'a' && c <= 'z') ||
            (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
            c == '-' || c == '.';
        safe += keep ? c : '_';
    }
    return "units/" + safe + ".bin";
}

Status
UnitJournal::saveUnit(const std::string &unitId, std::uint64_t key,
                      const std::string &record,
                      const telemetry::Snapshot &delta) const
{
    std::string envelope;
    appendPod<std::uint64_t>(envelope, key);
    appendString(envelope, record);
    appendString(envelope, delta.toJson());
    return store_.write(unitFileName(unitId), kUnitKind, envelope);
}

Status
UnitJournal::loadUnit(
    const std::string &unitId, std::uint64_t key,
    const std::function<Status(const std::string &record)> &decode) const
{
    auto envelope = store_.read(unitFileName(unitId), kUnitKind);
    if (!envelope.isOk())
        return envelope.status();
    const std::string &in = envelope.value();
    std::size_t offset = 0;
    std::uint64_t stored_key = 0;
    std::string record, delta_json;
    if (!consumePod(in, offset, stored_key) ||
        !consumeString(in, offset, record) ||
        !consumeString(in, offset, delta_json) || offset != in.size()) {
        return Status::error("malformed unit");
    }
    if (stored_key != key)
        return Status::error("bound to other inputs");
    auto delta = telemetry::Snapshot::parseJson(delta_json);
    if (!delta.isOk())
        return delta.status();
    if (Status decoded = decode(record); !decoded)
        return decoded;

    // All-or-nothing: the registry refuses a disagreeing delta whole,
    // and the caller keeps the decoded record only once this returns
    // ok, so a bad unit cannot leave half a replay behind.
    return telemetry::MetricRegistry::global().apply(delta.value());
}

} // namespace darkside
