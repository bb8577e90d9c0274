/**
 * @file
 * marvel-worker's engine: the lease-running dispatch client.
 *
 * A worker is deliberately thin: it connects, learns the campaign
 * identity from the daemon's HelloAck, validates that identity
 * against the golden run it built locally (the same
 * sched::checkJournalMatches fatals a resume would raise — wrong
 * workload, wrong ladder geometry, wrong prune flag all stop the
 * worker with both values and the offending source named), then loops
 * lease -> simulate -> stream until the daemon says the campaign is
 * complete. Each fault index runs through sched::runFaultIndex — the
 * exact unit of work the in-process scheduler executes — which is why
 * a distributed campaign's verdicts are identical by construction.
 *
 * Connection loss at ANY point is not an error: the daemon re-queues
 * whatever this worker was holding, and the worker reconnects with
 * exponential backoff + deterministic jitter and simply starts over
 * from Hello. Verdicts that were already streamed stay journaled;
 * re-running a lost lease re-produces byte-identical records that the
 * daemon deduplicates. Before reconnecting, the worker reads what the
 * daemon already sent: a finished daemon queues NoWork{complete} and
 * closes, so a failed send can mean the campaign is done.
 *
 * The golden run is supplied by a callback rather than built here:
 * the golden's ladder geometry comes from the daemon's meta, so the
 * caller cannot build it until the first HelloAck arrives.
 */

#ifndef MARVEL_NET_WORKER_HH
#define MARVEL_NET_WORKER_HH

#include <functional>
#include <string>

#include "fi/campaign.hh"
#include "net/socket.hh"
#include "store/journal.hh"

namespace marvel::net
{

/** Everything marvel-worker configures. */
struct WorkerConfig
{
    Endpoint endpoint;
    std::string name = "worker";

    /** Indices to ask for per lease; 0 lets the daemon decide. */
    u64 maxLeaseFaults = 0;

    /** Consecutive failed connects before giving up (fatal). */
    unsigned connectAttempts = 10;
    u64 backoffBaseMillis = 50;
    u64 backoffCapMillis = 2'000;

    /** Wait between LeaseRequests while the queue is drained but the
     *  campaign is not complete (other workers hold leases). */
    u64 idlePollMillis = 100;

    /**
     * Test hook simulating a worker killed mid-lease: after this many
     * verdicts have been computed in total, drop the connection on
     * the floor and return (0 = never). The lease-recovery tests and
     * the CI smoke job use it to exercise expiry/re-queue without
     * actual process murder being load-bearing.
     */
    u64 abandonAfterVerdicts = 0;
};

/** What a worker did with its life. */
struct WorkerReport
{
    u64 verdictsStreamed = 0; ///< computed (not all reached the wire)
    u64 leasesCompleted = 0;  ///< LeaseDone acks with ok
    u64 leasesLost = 0;       ///< acks refused (lease expired first)
    u64 reconnects = 0;
    bool campaignComplete = false; ///< saw NoWork{complete}
    bool abandoned = false;        ///< the test hook fired
};

/**
 * Supplies the golden run for the campaign described by `meta` (in
 * particular, built with meta.ladderRungs ladder rungs). Called once,
 * after the first HelloAck; the returned reference must stay valid
 * for the rest of runWorker.
 */
using GoldenSource = std::function<const fi::GoldenRun &(
    const store::JournalMeta &meta)>;

/**
 * Run the worker loop to campaign completion. fatal() on a campaign
 * identity mismatch or when the daemon stays unreachable through the
 * whole backoff schedule.
 */
WorkerReport runWorker(const WorkerConfig &config,
                       const GoldenSource &goldenFor);

/**
 * The backoff delay before reconnect `attempt` (0-based): an
 * exponentially growing window capped at `capMillis`, jittered into
 * [window/2, window] with a deterministic per-(name, attempt) RNG so
 * a restarted fleet of workers does not stampede the daemon in
 * lockstep. Exposed for tests.
 */
u64 backoffDelayMillis(const std::string &name, unsigned attempt,
                       u64 baseMillis, u64 capMillis);

} // namespace marvel::net

#endif // MARVEL_NET_WORKER_HH
