/**
 * @file
 * Deterministic replay of one journaled fault run.
 *
 * Every campaign fault index derives its fault from an RNG stream
 * keyed only by (seed, index), and the journal meta records every
 * option that shapes a verdict (fault model, target, geometry, window
 * length, early-termination / HVF / timeout settings). Replaying
 * index i therefore needs nothing beyond the journal and the workload
 * that produced the golden run: rebuild the golden run, check its
 * architectural digest against the journal, re-derive fault i, and
 * run it again — bit-identically, regardless of how many threads the
 * original campaign used.
 *
 * This is the engine behind the marvel-trace tool: a first replay
 * verifies the journaled verdict reproduces exactly, a second replay
 * runs instrumented (event tracing + propagation lineage) to explain
 * it.
 */

#ifndef MARVEL_SCHED_REPLAY_HH
#define MARVEL_SCHED_REPLAY_HH

#include <optional>

#include "fi/campaign.hh"
#include "store/journal.hh"

namespace marvel::sched
{

/** Everything needed to re-run one journaled fault index. */
struct ReplaySetup
{
    fi::TargetRef target;
    fi::FaultMask mask;           ///< re-derived from (seed, index)
                                  ///< under the journaled fault model
    fi::FaultSpec fault;          ///< first fault of `mask` (the whole
                                  ///< mask under the legacy model)
    fi::InjectionOptions options; ///< mirrors the journaled run
};

/**
 * Build the replay setup for fault `index` of the journaled campaign.
 * Validates that the index is in range and that the golden run
 * matches the journal through checkJournalMatches (architectural
 * digest, window length, ladder geometry, target geometry); fatal()
 * on any mismatch — a replay against the wrong workload or build
 * would silently produce garbage verdicts. Pass `journalPath` when
 * known so every mismatch message names the offending file.
 */
ReplaySetup replaySetup(const fi::GoldenRun &golden,
                        const store::JournalMeta &meta, u64 index,
                        const std::string &journalPath = "");

/**
 * The journaled verdict for `index`, if any. When a journal holds
 * several records for one index (a resumed run re-appending), the
 * last one wins, matching the merge semantics.
 */
std::optional<fi::RunVerdict> findVerdict(const store::Journal &journal,
                                          u64 index);

/** Field-by-field verdict equality (outcome, detail, HVF, cycles). */
bool verdictsIdentical(const fi::RunVerdict &a, const fi::RunVerdict &b);

} // namespace marvel::sched

#endif // MARVEL_SCHED_REPLAY_HH
