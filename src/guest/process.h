// Guest process model (the simulator's mm_struct + task).
//
// A process owns anonymous folios (tracked by slot so migration can patch
// locations in O(1)) and maps shared files through the page cache.  A
// Squeezy-enabled process carries the partition id the syscall interface
// assigned (paper §4.1: a new mm_struct field).
#ifndef SQUEEZY_GUEST_PROCESS_H_
#define SQUEEZY_GUEST_PROCESS_H_

#include <cstdint>
#include <vector>

#include "src/mm/page.h"
#include "src/sim/cost_model.h"

namespace squeezy {

class Zone;

using Pid = int32_t;
inline constexpr Pid kNoPid = -1;
inline constexpr int32_t kNoPartition = -1;

enum class ProcessState : uint8_t {
  kRunning,
  kExited,
  kOomKilled,  // Exceeded its partition / ran the VM out of memory.
};

class Process {
 public:
  Process(Pid pid, Pid parent) : pid_(pid), parent_(parent) {}

  Pid pid() const { return pid_; }
  Pid parent() const { return parent_; }
  ProcessState state() const { return state_; }
  void set_state(ProcessState s) { state_ = s; }

  // Squeezy attachment (set by the syscall path).
  int32_t partition_id() const { return partition_id_; }
  void set_partition_id(int32_t id) { partition_id_ = id; }
  Zone* anon_zone() const { return anon_zone_; }
  void set_anon_zone(Zone* z) { anon_zone_ = z; }

  // --- Anonymous folio table -------------------------------------------------
  // Appends a slot and returns its index, to pass to Zone::Alloc as
  // owner_slot.  Folios leave the table only from its tail (PopFolio), so
  // every slot below the tail holds a live folio.
  uint32_t ReserveSlot();
  void CommitSlot(uint32_t slot, Pfn head, uint8_t order);
  // Drops the slot ReserveSlot just appended (allocation failed).
  void AbandonSlot(uint32_t slot);
  void Relocate(uint32_t slot, Pfn new_head) { folios_[slot].head = new_head; }

  const std::vector<FolioRef>& folios() const { return folios_; }
  uint64_t anon_pages() const { return anon_pages_; }
  uint64_t anon_bytes() const { return PagesToBytes(anon_pages_); }

  // Pops the most recently allocated folio, for partial frees.  Returns
  // false when none remain.
  bool PopFolio(FolioRef* out);
  // Frees the folio table's memory once PopFolio has emptied it (exit).
  void ReleaseFolioTable();

  // --- File mappings ------------------------------------------------------------
  void MapFile(int32_t file_id) { files_.push_back(file_id); }
  const std::vector<int32_t>& files() const { return files_; }

 private:
  Pid pid_;
  Pid parent_;
  ProcessState state_ = ProcessState::kRunning;
  int32_t partition_id_ = kNoPartition;
  Zone* anon_zone_ = nullptr;

  std::vector<FolioRef> folios_;  // Slot-indexed; live below the tail.
  uint64_t anon_pages_ = 0;
  std::vector<int32_t> files_;
};

}  // namespace squeezy

#endif  // SQUEEZY_GUEST_PROCESS_H_
