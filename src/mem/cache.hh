/**
 * @file
 * Set-associative write-back cache with tree-PLRU replacement.
 *
 * The data array stores actual bytes and is a fault-injection target:
 * flips corrupt the stored values, reads consume them, writes and fills
 * overwrite them, and dirty evictions propagate corruption downward —
 * exactly the masking/propagation behaviours the paper measures.
 */

#ifndef MARVEL_MEM_CACHE_HH
#define MARVEL_MEM_CACHE_HH

#include <string>
#include <vector>

#include "common/faultwatch.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace marvel::mem
{

/**
 * Per-level access statistics. Value members so checkpoint copies
 * carry the golden baseline; registered into the stats tree via
 * Cache::regStats.
 */
struct CacheStats
{
    stats::Counter hits;
    stats::Counter misses;
    stats::Counter evictions;  ///< valid lines dropped to make room
    stats::Counter writebacks; ///< dirty victims pushed to next level
    stats::Counter fills;      ///< lines installed from below
};

/** Geometry and timing of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    u32 sizeBytes = 32 * 1024;
    u32 lineSize = 64;
    u32 ways = 4;
    u32 hitLatency = 2;

    u32 numSets() const { return sizeBytes / (lineSize * ways); }
    u32 numLines() const { return sizeBytes / lineSize; }
};

/**
 * One cache level. Value-semantic (checkpointable by copy).
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params = CacheParams{});

    const CacheParams &params() const { return params_; }

    /** Line index (set*ways+way) holding addr, or -1. */
    int findLine(Addr addr) const;

    /** True when the line holding addr is present. */
    bool contains(Addr addr) const { return findLine(addr) >= 0; }

    /**
     * Read bytes within one line (must hit). Updates PLRU and fault
     * bookkeeping.
     */
    void readLine(int line, u32 offset, void *out, u32 len);

    /** Write bytes within one line (must hit); marks dirty. */
    void writeLine(int line, u32 offset, const void *in, u32 len);

    /**
     * Pick the victim way for a fill of addr (invalid way preferred,
     * else tree-PLRU). Returns the line index.
     */
    int pickVictim(Addr addr);

    /** Victim state inspection before eviction. */
    bool lineValid(int line) const { return valid_[line]; }
    bool lineDirty(int line) const { return dirty_[line]; }
    Addr lineAddr(int line) const;

    /**
     * Read the full victim line for writeback (counts as a read of all
     * its bits: corruption propagates downward).
     */
    void readLineForWriteback(int line, void *out);

    /** Invalidate a line (clean eviction: pending faults vanish). */
    void invalidate(int line);

    /** Install a line for addr with the given bytes (fill). */
    void fill(int line, Addr addr, const void *bytes);

    /** Flush everything (invalidate all lines; no writeback). */
    void reset();

    // --- fault injection interface ------------------------------------
    /** Entries = lines; bits per entry = lineSize * 8. */
    u32 numEntries() const { return params_.numLines(); }
    u32 bitsPerEntry() const { return params_.lineSize * 8; }

    /** Flip one data bit (transient fault). */
    void flipBit(u32 line, u32 bit);

    /** True when the entry currently holds live data. */
    bool entryValid(u32 line) const { return valid_[line]; }

    /** Side-effect-free inspection of one stored byte. */
    u8
    peekByte(int line, u32 offset) const
    {
        return lineBytes(line)[offset];
    }

    /** Side-effect-free view of one line's lineSize data bytes. */
    const u8 *
    lineBytes(int line) const
    {
        return data_.data() +
               static_cast<std::size_t>(line) * params_.lineSize;
    }

    FaultState &faults() { return faults_; }
    const FaultState &faults() const { return faults_; }

    /**
     * True when future memory behaviour is indistinguishable: valid,
     * dirty and PLRU state everywhere, plus tag and data bytes of VALID
     * lines only. Invalid lines' stale tags/data are skipped — fill()
     * overwrites tag, data, valid and dirty before a line is ever
     * consulted again, so that residue is dead. Statistics counters are
     * excluded. Geometry is assumed identical (same config).
     */
    bool convergedWith(const Cache &other) const;

    // --- statistics -------------------------------------------------------
    CacheStats stats;

    /** Register this level's counters + miss-rate formula under g. */
    void regStats(stats::Group &g);

  private:
    void touchPlru(u32 set, u32 way);
    u32 plruVictim(u32 set) const;
    void applyStuck(u32 line, u32 bitLo, u32 bitHi);

    CacheParams params_;
    u32 setShift_;
    u32 setMask_;
    obs::Component obsComp_; ///< trace lane, derived from params_.name

    std::vector<u8> data_;    ///< numLines * lineSize bytes
    std::vector<Addr> tags_;  ///< full line-address tags
    std::vector<bool> valid_;
    std::vector<bool> dirty_;
    std::vector<u8> plru_;    ///< per-set tree bits (ways-1 bits, <= 8)

    FaultState faults_;
};

} // namespace marvel::mem

#endif // MARVEL_MEM_CACHE_HH
