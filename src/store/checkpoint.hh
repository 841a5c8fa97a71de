/**
 * @file
 * Run checkpointing on top of the artifact store: a journal of
 * completed work units. A *unit* is an opaque payload keyed by a
 * caller-chosen unit id (AsrSystem::runTestSet uses one unit per
 * (configuration x utterance-batch)); each unit is committed as its
 * own framed artifact, so a killed run leaves only whole, verified
 * units behind. `--resume` replays the completed units and recomputes
 * the rest; a unit that fails verification is quarantined by the
 * store and recomputed like a missing one.
 */

#ifndef DARKSIDE_STORE_CHECKPOINT_HH
#define DARKSIDE_STORE_CHECKPOINT_HH

#include <functional>
#include <string>

#include "store/artifact_store.hh"
#include "util/status.hh"

namespace darkside {

/** Journal of completed units inside a run directory. */
class RunCheckpoint
{
  public:
    /** @param runDir the run's artifact-store root */
    explicit RunCheckpoint(std::string runDir)
        : store_(std::move(runDir))
    {}

    /** The underlying store (shared with the persistent score cache). */
    const ArtifactStore &store() const { return store_; }

    /** True when a committed unit of this id exists. */
    bool
    hasUnit(const std::string &unitId) const
    {
        return store_.exists(unitFileName(unitId));
    }

    /**
     * Load a completed unit's payload and hand it to `replay`. A
     * verified load that `replay` accepts counts store.resumed_units;
     * an absent or quarantined unit, or one `replay` refuses, is a
     * Status error and the caller recomputes it.
     */
    Result<std::string>
    loadUnit(const std::string &unitId,
             const std::function<Status(const std::string &)> &replay) const
    {
        auto payload = store_.read(unitFileName(unitId), kUnitKind);
        if (!payload.isOk())
            return payload;
        if (Status replayed = replay(payload.value()); !replayed)
            return replayed;
        noteResumedUnit();
        return payload;
    }

    /** Durably commit a completed unit. */
    Status
    saveUnit(const std::string &unitId,
             const std::string &payload) const
    {
        return store_.write(unitFileName(unitId), kUnitKind, payload);
    }

    /** Store-relative artifact name of a unit id (sanitized). */
    static std::string unitFileName(const std::string &unitId);

    /** Payload-kind tag of journal units. */
    static constexpr const char *kUnitKind = "run-unit-v1";

  private:
    static void noteResumedUnit();

    ArtifactStore store_;
};

} // namespace darkside

#endif // DARKSIDE_STORE_CHECKPOINT_HH
