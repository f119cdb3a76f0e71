// Fixture: marker-directive abuse on an otherwise complete serdes pair.
// `cache_` is written by WriteMarked and read back by ReadMarked, so its
// transient marker is stale; `ghost_` names no member at all.
#pragma once

namespace fixture {

// The persisted record. Its one field round-trips through the registered
// pair below:
//
//   WriteMarked(record)  reads  record.cache_
//   ReadMarked(value)    writes record.cache_
//
// so a transient marker on that field can only be stale, and a marker that
// names no field of the record is flagged as naming nothing.
struct MarkedRecord {
  // The only persisted field.
  // wsnstatic:transient(cache_): stale by construction — the member round-trips
  int cache_ = 0;
  // wsnstatic:transient(ghost_): names nothing in this file
};

// wsnstatic:serdes(MarkedRecord, WriteMarked, ReadMarked): fixture persistence contract
inline int WriteMarked(const MarkedRecord& record) { return record.cache_; }

inline MarkedRecord ReadMarked(int value) {
  MarkedRecord record;
  record.cache_ = value;
  return record;
}

}  // namespace fixture
