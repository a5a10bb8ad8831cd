/**
 * @file
 * Canonical text renderings of the structs that define one
 * characterization run: WorkloadProfile, sim::MachineConfig and
 * RunOptions.
 *
 * The serve layer's content-addressed result cache keys on a hash of
 * these renderings, so they must be *canonical*: every field emitted,
 * always in the same order, with a bit-exact number format — two
 * semantically identical runs must render identical bytes no matter
 * how their structs were populated (explicit defaults vs. omitted
 * fields, request-option order, host, build). The renderings live in
 * core rather than serve so a new field added to any of these structs
 * is added to its canonical form in the same layer that owns the
 * struct; a version tag guards against silent drift (bump it whenever
 * a field is added/removed so stale persisted caches self-invalidate).
 */

#ifndef NETCHAR_CORE_CANONICAL_HH
#define NETCHAR_CORE_CANONICAL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/characterize.hh"
#include "sim/config.hh"
#include "stats/hash.hh"
#include "workloads/profile.hh"

namespace netchar
{

/**
 * Cache-key version. Embedded in cacheKeyText(), so a cache persisted
 * by another version misses cleanly instead of serving stale bodies.
 * Bump it when the rendered field set changes, and also when the bytes
 * a key's run returns change for the same fields (a model change that
 * moves any result): otherwise a daemon restarted on an older journal
 * serves the old body while a fresh shard computes the new one.
 * v2: cores that share a CLR warm the LLC once per process.
 */
inline constexpr int kCanonicalVersion = 2;

/** Canonical `key=value;` rendering of every profile field. */
std::string canonicalProfile(const wl::WorkloadProfile &profile);

/** Canonical rendering of every machine-config field (geometries,
 *  pipeline parameters, spread factors — the complete model). */
std::string canonicalMachine(const sim::MachineConfig &config);

/** Canonical rendering of every run option; disengaged optionals
 *  render as `unset`, identical to a default-constructed field. */
std::string canonicalRunOptions(const RunOptions &options);

/**
 * The full cache-key text of one (profile, machine, options) run:
 * version tag plus the three canonical renderings. Hash this (see
 * serve::ResultCache) to address a cached result; compare it to
 * attribute a collision.
 */
std::string cacheKeyText(const wl::WorkloadProfile &profile,
                         const sim::MachineConfig &config,
                         const RunOptions &options);

/**
 * The canonical texts of every registered profile
 * (wl::registeredProfiles()) and machine model (sim::machineModels()),
 * rendered once, plus what both hash passes need of each run key's
 * static head, `"run/" + "netchar-key/vN{" + profile + machine`: the
 * forward FNV-1a state per (profile, machine) pair (8 bytes each),
 * and one reverse map (FnvReverse, 2 KB) per piece: the head tag,
 * each profile text and each machine text. A run key then costs one
 * canonicalRunOptions() rendering, one hash over that text and three
 * map lookups in place of the ~1.7 KB head — the serve daemon's
 * cache-hit path. cacheKeyText() stays the reference: runKey()
 * returns exactly contentHashHex("run/" + cacheKeyText(...)).
 */
class RunKeyTable
{
  public:
    /** The table, built on first use and immutable after (so any
     *  thread may read it). */
    static const RunKeyTable &instance();

    /** canonicalProfile() of the profile at registry index
     *  `profile`. */
    const std::string &profileText(std::size_t profile) const;

    /** canonicalMachine() of the model registered under
     *  `machineKey`; throws std::invalid_argument for an unknown
     *  key. */
    const std::string &machineText(std::string_view machineKey) const;

    /** contentHashHex("run/" + cacheKeyText(profile, machine,
     *  options)) for the profile at registry index `profile` and
     *  the model registered under `machineKey`. */
    std::string runKey(std::size_t profile, std::string_view machineKey,
                       const RunOptions &options) const;

    /**
     * contentHashHex of a sweep response's key text:
     * `netchar-key/vN/sweep{suite=S;format=F;shard=I/N;maxAttempts=A;`
     * then `machine{M}options{O}` (M and O the canonical texts of the
     * model and the options) and one `profile{P}` per registry index
     * in `profiles`, in order.
     */
    std::string sweepKey(std::string_view suite, std::string_view format,
                         unsigned shard, unsigned shards,
                         unsigned maxAttempts, std::string_view machineKey,
                         const RunOptions &options,
                         const std::vector<std::size_t> &profiles) const;

    /** As sweepKey(), for a subset response:
     *  `netchar-key/vN/subset{suite=S;size=K;maxAttempts=A;...`. */
    std::string subsetKey(std::string_view suite, std::size_t size,
                          unsigned maxAttempts, std::string_view machineKey,
                          const RunOptions &options,
                          const std::vector<std::size_t> &profiles) const;

  private:
    RunKeyTable();
    std::size_t machineIndex(std::string_view machineKey) const;
    /** contentHashHex of the version tag, `/`, `shape` (the
     *  verb's own fields) and the shared tail. */
    std::string suiteKey(const std::string &shape, unsigned maxAttempts,
                         std::string_view machineKey,
                         const RunOptions &options,
                         const std::vector<std::size_t> &profiles) const;

    /** "run/" plus the version tag that opens cacheKeyText(). */
    std::string runHead_;
    std::vector<std::string> profiles_;
    /** In sim::machineModels() order. */
    std::vector<std::string> machines_;
    /** fnv1a(runHead_ + profile + machine), profile-major. */
    std::vector<std::uint64_t> forward_;
    /** The reverse FNV-1a maps of runHead_, of each profile text
     *  and of each machine text. */
    FnvReverse headReverse_;
    std::vector<FnvReverse> profileReverse_;
    std::vector<FnvReverse> machineReverse_;
};

} // namespace netchar

#endif // NETCHAR_CORE_CANONICAL_HH
