/**
 * @file
 * Session-level run checkpointing for the streaming server: a journal
 * of terminal session outcomes on the crash-safe artifact store
 * (docs/STORE.md), the serve-side sibling of RunCheckpoint. Every
 * session that reaches a terminal state (completed or degraded) is
 * committed as its own framed unit the moment it finishes, so a run
 * killed mid-flight — SIGKILL included — leaves only whole, verified
 * units behind. A resumed run (`darkside serve --run-dir D --resume`)
 * replays journaled sessions (outcome plus the session's serve.*
 * telemetry delta) and recomputes the rest; a unit that fails frame
 * verification is quarantined by the store and recomputed like a
 * missing one. A drain that runs to completion additionally commits a
 * manifest with the final session ledger (docs/SERVING.md).
 */

#ifndef DARKSIDE_SERVE_SERVE_CHECKPOINT_HH
#define DARKSIDE_SERVE_SERVE_CHECKPOINT_HH

#include <cstdint>
#include <optional>
#include <string>

#include "serve/server.hh"
#include "store/artifact_store.hh"
#include "util/status.hh"

namespace darkside {

namespace telemetry {
struct Snapshot;
}

/** Final session ledger of a drained serving run, committed once the
 *  drain finished. Resume does not need it (units stand alone); it
 *  pins what a clean shutdown looked like for audits and goldens. */
struct ServeManifest
{
    /** configKeyOf() of the server that drained. */
    std::uint64_t configKey = 0;
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t resumedSessions = 0;
};

/** Journal of terminal session outcomes inside a run directory. */
class ServeCheckpoint
{
  public:
    /** @param runDir the run's artifact-store root (shared with the
     *        persistent score cache, like sweep run directories) */
    explicit ServeCheckpoint(std::string runDir)
        : store_(std::move(runDir))
    {}

    const ArtifactStore &store() const { return store_; }

    /**
     * Key binding the server configuration: every field that changes
     * what a session computes (selector configuration, beam, chunking)
     * feeds the hash. A journal reused with a different configuration
     * misses on this key and recomputes.
     */
    static std::uint64_t configKeyOf(const ServeConfig &config);

    /**
     * Key binding one journal unit to its exact inputs: the
     * configuration key plus the utterance identity (id, length) and
     * its offer index. Replay only ever substitutes for the identical
     * session of the identical workload.
     */
    static std::uint64_t sessionKeyOf(const ServeConfig &config,
                                      const Utterance &utt,
                                      std::size_t index);

    /** Store-relative artifact name of a session unit. */
    static std::string sessionUnitName(std::size_t index);

    /** True when a committed unit for this offer index exists. */
    bool
    hasSession(std::size_t index) const
    {
        return store_.exists(sessionUnitName(index));
    }

    /**
     * Durably commit one terminal session: the outcome plus the
     * session's serve.* telemetry delta (applied on replay). Counts
     * serve.drain.committed_units on success. The serve.checkpoint_torn
     * probe (keyed on the hash of the unit name) models a commit torn
     * by a crash mid-writeback: the committed frame is truncated in
     * place, so the next load fails verification and quarantines it.
     */
    Status saveSession(std::uint64_t sessionKey,
                       const SessionOutcome &outcome,
                       const telemetry::Snapshot &delta) const;

    /**
     * Load + verify the unit for offer index `index`. On success the
     * stored telemetry delta is applied to the global registry, the
     * outcome is returned, and serve.drain.resumed_sessions is
     * counted. Returns nullopt — caller recomputes — when the unit is
     * absent, quarantined, bound to a different session key, or
     * carries a delta the registry refuses (MetricRegistry::apply).
     */
    std::optional<SessionOutcome>
    loadSession(std::size_t index, std::uint64_t sessionKey) const;

    /** Durably commit the final session ledger of a clean drain. */
    Status saveManifest(const ServeManifest &manifest) const;

    /** Load + verify the drain manifest (error when absent/corrupt). */
    Result<ServeManifest> loadManifest() const;

    bool
    hasManifest() const
    {
        return store_.exists(kManifestName);
    }

    /** Payload-kind tag of session units. */
    static constexpr const char *kSessionKind = "serve-session-v1";
    /** Payload-kind tag and name of the drain manifest. */
    static constexpr const char *kManifestKind = "serve-manifest-v1";
    static constexpr const char *kManifestName = "serve_manifest.bin";

  private:
    ArtifactStore store_;
};

} // namespace darkside

#endif // DARKSIDE_SERVE_SERVE_CHECKPOINT_HH
