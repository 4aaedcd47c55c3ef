// Always-on lock-free flight recorder: a fixed-capacity ring of the last N
// completed query traces and scheduler events, pre-serialized to JSON at
// record time so a crash-path dump is a plain walk-and-write with no
// allocation-dependent rendering.
//
// Writers claim a slot with one fetch_add and publish through a per-slot
// seqlock (odd = being written, even = stable); a writer that finds its
// slot mid-write (the ring lapped itself) drops the entry rather than
// block. Readers copy out slots whose sequence is stable across the copy
// and skip torn ones, so ToJson()/DumpTo() are safe against concurrent
// recording without any lock. Payload words are relaxed atomics, so the
// racing copy is well-defined.
//
// Crash path: ArmCrashDump registers this recorder process-wide;
// DumpArmedRecorder() — called at the durability crash points right before
// std::_Exit — walks the ring with the same seqlock reads and write()s the
// dump, leaving the last moments of every in-flight query on disk.
#ifndef PAYLESS_OBS_FLIGHT_RECORDER_H_
#define PAYLESS_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace payless::obs {

class FlightRecorder {
 public:
  struct Options {
    size_t capacity = 32;      // slots in the ring
    size_t entry_bytes = 4096;  // max pre-serialized entry size, larger
                                // entries are truncated to a stub
  };

  FlightRecorder() : FlightRecorder(Options()) {}
  explicit FlightRecorder(const Options& options);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one pre-rendered JSON object (no trailing comma/newline).
  /// Lock-free; drops the entry if the claimed slot is mid-write or the
  /// JSON exceeds entry_bytes.
  void Record(const std::string& entry_json);

  /// {"entries":[...oldest to newest...],"recorded":n,"dropped":d}
  std::string ToJson() const;

  /// Writes ToJson() to a uniquely-named variant of `path`: the first dump
  /// of this recorder uses `path` verbatim, every later one inserts a
  /// monotonic `-<n>` before the extension (`dump.json`, `dump-1.json`,
  /// `dump-2.json`, ...) so repeated dumps in one process — several failed
  /// queries, a budget rejection and then a crash — never overwrite each
  /// other. Returns false on I/O error.
  bool DumpTo(const std::string& path) const;

  /// Registers this recorder (and the dump path) for the crash-point dump.
  /// Last call wins; pass an empty path to disarm.
  void ArmCrashDump(const std::string& path);

  /// Dumps the armed recorder, if any, to its armed path. Lock-free reads
  /// plus open/write/close only — safe to call on the crash path right
  /// before _Exit. No-op when nothing is armed.
  static void DumpArmedRecorder();

  int64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  /// The payload is copied word by word through relaxed atomic accesses
  /// (std::atomic_ref), so a reader racing a writer reads torn words, never
  /// a data race; the seqlock then tells it to discard them.
  struct Slot {
    std::atomic<uint64_t> seq{0};  // even = stable, odd = being written
    std::atomic<size_t> len{0};
    std::unique_ptr<uint64_t[]> buf;  // entry_bytes rounded up to words
  };

  /// Copies slot `i` into `out` if stable; returns false on a torn read.
  bool ReadSlot(size_t i, std::string* out) const;

  Options options_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
  std::atomic<int64_t> recorded_{0};
  std::atomic<int64_t> dropped_{0};
  mutable std::atomic<uint64_t> dump_seq_{0};
};

}  // namespace payless::obs

#endif  // PAYLESS_OBS_FLIGHT_RECORDER_H_
