// Env: the storage-environment abstraction every on-disk structure (WAL,
// SSTable, MANIFEST) goes through.
//
// Two implementations ship with the library:
//   * PosixEnv  — real files (Env::Posix()).
//   * SimEnv    — an in-memory filesystem mounted on simulated block
//                 devices with HDD/SSD/RAID0 timing models (sim_env.h).
// The simulator is how this repo reproduces the paper's hardware matrix on
// a laptop: transfers block the calling thread for the modeled duration, so
// pipeline overlap between I/O and computation is a genuine wall-clock
// effect.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/slice.h"
#include "src/util/status.h"

namespace pipelsm {

// Sequential read stream (WAL recovery, table copies).
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;

  // Read up to n bytes. Sets *result to the data read (may point into
  // scratch, which must stay alive while *result is used).
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

// Random-access read (SSTable blocks). Must be thread-safe.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;
};

// Append-only write stream.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const Slice& data) = 0;
  virtual Status Close() = 0;
  virtual Status Flush() = 0;
  virtual Status Sync() = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  // The real-filesystem environment (process-wide singleton, never null).
  static Env* Posix();

  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) = 0;
  virtual Status NewRandomAccessFile(
      const std::string& fname, std::unique_ptr<RandomAccessFile>* result) = 0;
  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) = 0;
  // Opens for append, creating if missing.
  virtual Status NewAppendableFile(const std::string& fname,
                                   std::unique_ptr<WritableFile>* result) = 0;

  virtual bool FileExists(const std::string& fname) = 0;
  virtual Status GetChildren(const std::string& dir,
                             std::vector<std::string>* result) = 0;
  virtual Status RemoveFile(const std::string& fname) = 0;
  virtual Status CreateDir(const std::string& dirname) = 0;
  virtual Status RemoveDir(const std::string& dirname) = 0;
  virtual Status GetFileSize(const std::string& fname, uint64_t* size) = 0;
  virtual Status RenameFile(const std::string& src,
                            const std::string& target) = 0;

  // Durably persist directory metadata (file creations/renames) — on
  // POSIX, fsync of the directory fd. Crash-atomic install sequences
  // (write temp, Sync, rename, SyncDir) need this final step or the
  // rename itself may not survive power loss. Default: no-op for
  // environments whose metadata is always durable (SimEnv).
  virtual Status SyncDir(const std::string& dirname) {
    (void)dirname;
    return Status::OK();
  }

  virtual uint64_t NowMicros() = 0;
  virtual void SleepForMicroseconds(int micros) = 0;

  // Independent I/O channels behind this environment (RAID0 members):
  // the most S1 reads that transfer at once, so S-PPCP's bound on k
  // (Eq. 4). Default 1: a plain filesystem does not reveal striping.
  virtual int StripeCount() { return 1; }
};

// Convenience helpers.
Status WriteStringToFile(Env* env, const Slice& data, const std::string& fname,
                         bool sync = false);
Status ReadFileToString(Env* env, const std::string& fname, std::string* data);

}  // namespace pipelsm
