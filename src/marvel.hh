/**
 * @file
 * Umbrella header: the public API of the MARVEL library.
 *
 * Typical usage:
 *   - describe a system:        soc::preset / soc::configFromFile
 *   - pick or write a workload: workloads::get / mir::ModuleBuilder
 *   - compile it:               isa::compile
 *   - golden run:               fi::runGolden
 *   - inject one fault:         fi::runWithFault
 *   - run a campaign:           sched::runCampaign (in memory, or
 *                               journaled, resumable and sharded)
 *   - merge / resume identity:  sched::mergeJournals /
 *                               sched::campaignOptionsFor
 *   - aggregate:                fi::weightedAvf / fi::operationsPerFailure
 *
 * See README.md for a walkthrough and DESIGN.md for the architecture.
 */

#ifndef MARVEL_MARVEL_HH
#define MARVEL_MARVEL_HH

#include "accel/cluster.hh"
#include "accel/designs/designs.hh"
#include "common/config.hh"
#include "common/log.hh"
#include "common/memmap.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "cpu/ooo_core.hh"
#include "fi/campaign.hh"
#include "fi/metrics.hh"
#include "isa/codegen.hh"
#include "isa/encoding.hh"
#include "mem/hierarchy.hh"
#include "mir/builder.hh"
#include "mir/interp.hh"
#include "sched/scheduler.hh"
#include "sched/workqueue.hh"
#include "soc/builder.hh"
#include "store/blob.hh"
#include "store/journal.hh"
#include "store/serialize.hh"
#include "soc/checkpoint.hh"
#include "soc/system.hh"
#include "workloads/workloads.hh"

#endif // MARVEL_MARVEL_HH
