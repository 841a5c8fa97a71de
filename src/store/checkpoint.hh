/**
 * @file
 * The run journal on top of the artifact store (docs/STORE.md "Run
 * journal"): completed work units of a long-running path, so a killed
 * run resumes where it stopped. AsrSystem::runTestSet journals one unit
 * per (configuration x utterance batch), StreamingServer one per
 * terminal session plus its drain manifest. Each unit is committed as
 * its own framed artifact, so a kill leaves only whole, verified units
 * behind.
 *
 * A unit is one envelope: the key binding it to every input that
 * changes its result, the caller's record bytes, and the unit's
 * deterministic telemetry delta. A unit whose key matches is replayed
 * — record decoded, delta applied — instead of recomputed; anything
 * else (absent, quarantined, foreign key, malformed, refused) is
 * recomputed, and replay is all-or-nothing.
 */

#ifndef DARKSIDE_STORE_CHECKPOINT_HH
#define DARKSIDE_STORE_CHECKPOINT_HH

#include <cstdint>
#include <functional>
#include <string>

#include "store/artifact_store.hh"
#include "util/status.hh"

namespace darkside {

namespace telemetry {
struct Snapshot;
}

/** Journal of completed units inside a run directory. */
class UnitJournal
{
  public:
    /** @param runDir the run's artifact-store root (shared with the
     *        persistent score cache) */
    explicit UnitJournal(std::string runDir)
        : store_(std::move(runDir))
    {}

    /** The underlying store. */
    const ArtifactStore &store() const { return store_; }

    /** True when a committed unit of this id exists. */
    bool
    hasUnit(const std::string &unitId) const
    {
        return store_.exists(unitFileName(unitId));
    }

    /** Durably commit a unit: its key, the caller's record bytes and
     *  the telemetry delta computing it produced. */
    Status saveUnit(const std::string &unitId, std::uint64_t key,
                    const std::string &record,
                    const telemetry::Snapshot &delta) const;

    /**
     * Replay a unit: check its key, parse its delta, hand its record to
     * `decode`, then apply the delta to the global registry. An error —
     * the caller recomputes the unit — when the unit is absent or
     * quarantined, bound to another key, malformed, or refused by
     * `decode` or by MetricRegistry::apply; nothing is applied then.
     * `decode` parses into temporaries, which the caller keeps only
     * once this returns ok.
     */
    Status loadUnit(
        const std::string &unitId, std::uint64_t key,
        const std::function<Status(const std::string &record)> &decode)
        const;

    /** Store-relative artifact name of a unit id (sanitized). */
    static std::string unitFileName(const std::string &unitId);

    /** Payload-kind tag of journal units. */
    static constexpr const char *kUnitKind = "journal-unit-v1";

  private:
    ArtifactStore store_;
};

} // namespace darkside

#endif // DARKSIDE_STORE_CHECKPOINT_HH
