/**
 * @file
 * Load and store queues.
 *
 * Both are circular, age-ordered queues and fault-injection targets
 * (Figs. 7/8). The injectable bit image of a load entry is its 48-bit
 * effective address; a store entry's image is its 48-bit address plus
 * 64 bits of store data. Flips before the entry is consumed change the
 * accessed location / written value; flips into empty or already-
 * consumed entries are masked, which the early-termination bookkeeping
 * detects.
 */

#ifndef MARVEL_CPU_LSQ_HH
#define MARVEL_CPU_LSQ_HH

#include <vector>

#include "common/faultwatch.hh"
#include "common/types.hh"

namespace marvel::cpu
{

/** One load queue entry. */
struct LqEntry
{
    bool valid = false;
    u64 seq = 0;
    Addr addr = 0;
    u8 size = 0;
    bool addrReady = false;
    bool issued = false;
    bool completed = false;
    bool mmio = false;
    bool tainted = false; ///< obs lineage: address derives from the fault

    bool operator==(const LqEntry &other) const = default;
};

/** One store queue entry. */
struct SqEntry
{
    bool valid = false;
    u64 seq = 0;
    Addr addr = 0;
    u64 data = 0;
    u8 size = 0;
    bool ready = false;   ///< address and data available
    bool retired = false; ///< committed, awaiting drain
    bool mmio = false;
    bool tainted = false; ///< obs lineage: addr/data derive from the fault

    bool operator==(const SqEntry &other) const = default;
};

/**
 * Common circular-queue machinery for the two queues.
 */
template <typename Entry>
class AgeQueue
{
  public:
    explicit AgeQueue(unsigned capacity = 32)
        : entries_(capacity)
    {
    }

    unsigned capacity() const { return entries_.size(); }
    unsigned size() const { return count_; }
    bool full() const { return count_ == entries_.size(); }
    bool empty() const { return count_ == 0; }

    /** Allocate the youngest slot; returns its index. */
    int
    allocate(u64 seq)
    {
        if (full())
            return -1;
        const unsigned idx = (head_ + count_) % entries_.size();
        entries_[idx] = Entry{};
        entries_[idx].valid = true;
        entries_[idx].seq = seq;
        ++count_;
        return static_cast<int>(idx);
    }

    /** Free the oldest slot (it must be index head()). */
    void
    popOldest()
    {
        entries_[head_].valid = false;
        head_ = (head_ + 1) % entries_.size();
        --count_;
    }

    /** Squash all entries younger than seq. Returns indices removed. */
    void
    squashYoungerThan(u64 seq, FaultState &faults)
    {
        while (count_ > 0) {
            const unsigned idx = (head_ + count_ - 1) % entries_.size();
            if (entries_[idx].seq <= seq)
                break;
            faults.noteGone(idx);
            entries_[idx].valid = false;
            --count_;
        }
    }

    unsigned head() const { return head_; }

    Entry &operator[](unsigned idx) { return entries_[idx]; }
    const Entry &operator[](unsigned idx) const { return entries_[idx]; }

    /** Iterate oldest-to-youngest: idx = indexAt(i), i in [0, size). */
    unsigned
    indexAt(unsigned i) const
    {
        return (head_ + i) % entries_.size();
    }

    void
    reset()
    {
        for (Entry &e : entries_)
            e = Entry{};
        head_ = 0;
        count_ = 0;
    }

    /**
     * True when the two queues hold identical live state: same physical
     * head and occupancy (RobEntry records physical lq/sq slot indices,
     * so slot positions are architectural here), and every valid slot
     * field-identical. Invalid slots are skipped: allocate() resets a
     * slot to Entry{} before any field is read again, so stale residue
     * in a free slot can never influence future behaviour.
     */
    bool
    convergedWith(const AgeQueue &other) const
    {
        if (entries_.size() != other.entries_.size() ||
            head_ != other.head_ || count_ != other.count_)
            return false;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].valid != other.entries_[i].valid)
                return false;
            if (entries_[i].valid &&
                !(entries_[i] == other.entries_[i]))
                return false;
        }
        return true;
    }

  private:
    std::vector<Entry> entries_;
    unsigned head_ = 0;
    unsigned count_ = 0;
};

/** Load queue with its injectable address image. */
class LoadQueue : public AgeQueue<LqEntry>
{
  public:
    using AgeQueue::AgeQueue;

    u32 numEntries() const { return capacity(); }
    u32 bitsPerEntry() const { return 48; }

    void
    flipBit(u32 entry, u32 bit)
    {
        (*this)[entry].addr ^= 1ull << bit;
    }

    FaultState &faults() { return faults_; }
    const FaultState &faults() const { return faults_; }

  private:
    FaultState faults_;
};

/** Store queue with its injectable address+data image. */
class StoreQueue : public AgeQueue<SqEntry>
{
  public:
    using AgeQueue::AgeQueue;

    u32 numEntries() const { return capacity(); }
    u32 bitsPerEntry() const { return 112; }

    void
    flipBit(u32 entry, u32 bit)
    {
        if (bit < 48)
            (*this)[entry].addr ^= 1ull << bit;
        else
            (*this)[entry].data ^= 1ull << (bit - 48);
        touch();
    }

    /**
     * Change count for the loads' store-queue search: the owner calls
     * touch() whenever an entry's presence, address or ready state
     * changes (allocation excepted: a new store is younger than every
     * queued load, so no load's search can see it). Derived state, so
     * convergedWith ignores it.
     */
    u64 version() const { return version_; }
    void touch() { ++version_; }

    FaultState &faults() { return faults_; }
    const FaultState &faults() const { return faults_; }

  private:
    FaultState faults_;
    u64 version_ = 0;
};

} // namespace marvel::cpu

#endif // MARVEL_CPU_LSQ_HH
