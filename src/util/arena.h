// Monotonic arena for per-run scratch objects.
//
// The sweep inner loop rebuilds the whole node stack (channel, MAC, link
// layer, traffic source) for every configuration. Allocating those objects
// individually costs a handful of heap round-trips per run; the arena bumps
// them out of reusable chunks instead, so after the first run a worker's
// stack assembly touches the heap zero times. Reset() destroys the
// registered objects in reverse construction order (construction order is
// dependency order: generator references link references mac references
// channel) and rewinds the chunks without freeing them.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace wsnlink::util {

/// Chunked bump allocator with LIFO destruction on Reset().
class MonotonicArena {
 public:
  /// `chunk_bytes` is the default chunk size; oversized requests get a
  /// dedicated chunk of their own size.
  explicit MonotonicArena(std::size_t chunk_bytes = 16 * 1024) noexcept
      : chunk_bytes_(chunk_bytes) {}

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  ~MonotonicArena() { DestroyAll(); }

  /// Constructs a T in arena storage. The object is destroyed (in reverse
  /// construction order across all New calls) at the next Reset() or at
  /// arena destruction — never individually.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    void* mem = Allocate(sizeof(T), alignof(T));
    T* obj = new (mem) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      dtors_.push_back(DtorRecord{obj, [](void* p) noexcept {
                                    static_cast<T*>(p)->~T();
                                  }});
    }
    return obj;
  }

  /// Raw aligned storage from the current chunk (bump pointer). Grows by a
  /// new chunk only when every retained chunk is exhausted, so steady-state
  /// reuse after Reset() performs no heap allocation.
  void* Allocate(std::size_t bytes, std::size_t align);

  /// Destroys every object registered since the last Reset() in reverse
  /// construction order, then rewinds all chunks (keeping their storage).
  void Reset() noexcept {
    DestroyAll();
    for (Chunk& chunk : chunks_) chunk.used = 0;
    active_ = 0;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };
  struct DtorRecord {
    void* object;
    void (*destroy)(void*) noexcept;
  };

  void DestroyAll() noexcept {
    for (auto it = dtors_.rbegin(); it != dtors_.rend(); ++it) {
      it->destroy(it->object);
    }
    dtors_.clear();
  }

  std::vector<Chunk> chunks_;
  std::vector<DtorRecord> dtors_;
  std::size_t active_ = 0;  // index of the chunk currently being bumped
  std::size_t chunk_bytes_;
};

}  // namespace wsnlink::util
