#include "serve/serve_checkpoint.hh"

#include <cstring>
#include <filesystem>
#include <system_error>
#include <vector>

#include "fault/fault.hh"
#include "store/pod_codec.hh"
#include "telemetry/metrics.hh"
#include "telemetry/snapshot.hh"
#include "util/bits.hh"

namespace darkside {

namespace {

void
bumpServeDrainCounter(const char *name, const char *unit)
{
    // Registered alongside the other serve.* counters by the server;
    // this only has to bump it.
    telemetry::MetricRegistry::global().counter(name, unit).add(1);
}

} // namespace

std::uint64_t
ServeCheckpoint::configKeyOf(const ServeConfig &config)
{
    std::uint64_t h = 0x5e55104bcafeull;
    for (const char c : config.system.label())
        h = mix64(h ^ static_cast<std::uint8_t>(c));
    const auto mixFloat = [&h](float v) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        h = mix64(h ^ bits);
    };
    mixFloat(config.system.beam);
    h = mix64(h ^ config.system.nbestEntries);
    h = mix64(h ^ config.system.nbestWays);
    mixFloat(config.system.relMargin);
    h = mix64(h ^ config.system.relMaxSurvivors);
    mixFloat(config.system.adaptiveMinMargin);
    mixFloat(config.system.adaptiveMaxMargin);
    mixFloat(config.system.adaptiveEmaAlpha);
    h = mix64(h ^ config.chunkFrames);
    return h;
}

std::uint64_t
ServeCheckpoint::sessionKeyOf(const ServeConfig &config,
                              const Utterance &utt, std::size_t index)
{
    std::uint64_t h = configKeyOf(config);
    h = mix64(h ^ utt.id);
    h = mix64(h ^ utt.frames.size());
    h = mix64(h ^ index);
    return h;
}

std::string
ServeCheckpoint::sessionUnitName(std::size_t index)
{
    return "sessions/session_" + std::to_string(index) + ".bin";
}

Status
ServeCheckpoint::saveSession(std::uint64_t sessionKey,
                             const SessionOutcome &outcome,
                             const telemetry::Snapshot &delta) const
{
    std::string payload;
    appendPod<std::uint64_t>(payload, sessionKey);
    appendPod<std::uint64_t>(payload, outcome.index);
    appendPod<std::uint64_t>(payload, outcome.utteranceId);
    appendPod<std::uint8_t>(payload, outcome.degraded ? 1 : 0);
    appendString(payload, outcome.faultCause);
    appendPod<std::uint64_t>(payload, outcome.frames);
    appendPod<std::uint64_t>(payload, outcome.chunks);
    appendPod<double>(payload, outcome.totalCost);
    appendPod<std::uint64_t>(payload, outcome.words.size());
    for (const WordId w : outcome.words)
        appendPod<std::uint32_t>(payload, w);
    appendString(payload, delta.toJson());

    const std::string name = sessionUnitName(outcome.index);
    const Status status = store_.write(name, kSessionKind, payload);
    if (!status.isOk())
        return status;
    bumpServeDrainCounter("serve.drain.committed_units", "units");

    // Torn-commit model: the rename landed but the page cache lied —
    // half the frame never reached the disk. The writer believed the
    // commit succeeded (Ok below); the next load fails verification
    // and quarantines the unit.
    if (FaultInjector::global().trigger("serve.checkpoint_torn",
                                        faultKey(name))) {
        std::error_code ec;
        const std::string path = store_.pathOf(name);
        const auto size = std::filesystem::file_size(path, ec);
        if (!ec)
            std::filesystem::resize_file(path, size / 2, ec);
    }
    return Status::ok();
}

std::optional<SessionOutcome>
ServeCheckpoint::loadSession(std::size_t index,
                             std::uint64_t sessionKey) const
{
    auto payload = store_.read(sessionUnitName(index), kSessionKind);
    if (!payload.isOk())
        return std::nullopt;

    const std::string &in = payload.value();
    std::size_t offset = 0;
    std::uint64_t key = 0, stored_index = 0, word_count = 0;
    std::uint8_t degraded = 0;
    SessionOutcome o;
    std::uint64_t frames = 0, chunks = 0;
    if (!consumePod(in, offset, key) ||
        !consumePod(in, offset, stored_index) ||
        !consumePod(in, offset, o.utteranceId) ||
        !consumePod(in, offset, degraded) || degraded > 1 ||
        !consumeString(in, offset, o.faultCause) ||
        !consumePod(in, offset, frames) ||
        !consumePod(in, offset, chunks) ||
        !consumePod(in, offset, o.totalCost) ||
        !consumePod(in, offset, word_count) ||
        in.size() - offset < word_count * sizeof(std::uint32_t)) {
        return std::nullopt;
    }
    if (key != sessionKey || stored_index != index)
        return std::nullopt;
    o.index = static_cast<std::size_t>(stored_index);
    o.degraded = degraded != 0;
    o.frames = static_cast<std::size_t>(frames);
    o.chunks = static_cast<std::size_t>(chunks);
    o.words.resize(static_cast<std::size_t>(word_count));
    for (auto &w : o.words) {
        std::uint32_t raw = 0;
        consumePod(in, offset, raw);
        w = raw;
    }
    std::string delta_json;
    if (!consumeString(in, offset, delta_json) || offset != in.size())
        return std::nullopt;
    auto delta = telemetry::Snapshot::parseJson(delta_json);
    if (!delta.isOk())
        return std::nullopt;

    // All-or-nothing: the delta is applied only after the whole unit
    // parsed and matched its key, and the registry refuses a delta
    // that disagrees with it without touching anything.
    if (!telemetry::MetricRegistry::global().apply(delta.value()))
        return std::nullopt;
    bumpServeDrainCounter("serve.drain.resumed_sessions", "sessions");
    return o;
}

Status
ServeCheckpoint::saveManifest(const ServeManifest &manifest) const
{
    std::string payload;
    appendPod<std::uint64_t>(payload, manifest.configKey);
    appendPod<std::uint64_t>(payload, manifest.offered);
    appendPod<std::uint64_t>(payload, manifest.admitted);
    appendPod<std::uint64_t>(payload, manifest.shed);
    appendPod<std::uint64_t>(payload, manifest.completed);
    appendPod<std::uint64_t>(payload, manifest.degraded);
    appendPod<std::uint64_t>(payload, manifest.resumedSessions);
    return store_.write(kManifestName, kManifestKind, payload);
}

Result<ServeManifest>
ServeCheckpoint::loadManifest() const
{
    auto payload = store_.read(kManifestName, kManifestKind);
    if (!payload.isOk())
        return Status::error(payload.message());
    const std::string &in = payload.value();
    std::size_t offset = 0;
    ServeManifest m;
    if (!consumePod(in, offset, m.configKey) ||
        !consumePod(in, offset, m.offered) ||
        !consumePod(in, offset, m.admitted) ||
        !consumePod(in, offset, m.shed) ||
        !consumePod(in, offset, m.completed) ||
        !consumePod(in, offset, m.degraded) ||
        !consumePod(in, offset, m.resumedSessions) ||
        offset != in.size()) {
        return Status::error("serve manifest payload is malformed");
    }
    return m;
}

} // namespace darkside
