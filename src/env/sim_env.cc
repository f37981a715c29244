#include "src/env/sim_env.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace pipelsm {

namespace {
// Virtual extents are carved from an infinite disk in fixed-size slabs; a
// file larger than one slab simply spills into the bytes after its base
// (the allocator advances far enough at creation of the next file).
constexpr uint64_t kExtentAlign = 4ull * 1024 * 1024;
}  // namespace

class SimEnv::FileState {
 public:
  explicit FileState(uint64_t extent_base) : extent_base_(extent_base) {}

  uint64_t extent_base() const { return extent_base_; }

  uint64_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return data_.size();
  }

  Status Read(uint64_t offset, size_t n, Slice* result, char* scratch) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (offset > data_.size()) {
      return Status::IOError("read past end of file");
    }
    const size_t avail = data_.size() - offset;
    const size_t len = std::min(n, avail);
    std::memcpy(scratch, data_.data() + offset, len);
    *result = Slice(scratch, len);
    return Status::OK();
  }

  void Append(const Slice& data) {
    std::lock_guard<std::mutex> lock(mu_);
    data_.append(data.data(), data.size());
  }

  void Truncate(uint64_t size) {
    std::lock_guard<std::mutex> lock(mu_);
    if (size < data_.size()) data_.resize(size);
  }

  Status Corrupt(uint64_t offset, size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    if (offset >= data_.size()) {
      return Status::InvalidArgument("corrupt offset past end of file");
    }
    const size_t len = std::min<size_t>(n, data_.size() - offset);
    for (size_t i = 0; i < len; i++) {
      data_[offset + i] = static_cast<char>(data_[offset + i] ^ 0x5a);
    }
    return Status::OK();
  }

 private:
  const uint64_t extent_base_;
  mutable std::mutex mu_;
  std::string data_;
};

class SimEnv::SimSequentialFile final : public SequentialFile {
 public:
  SimSequentialFile(std::shared_ptr<FileState> file, SimDevice* device)
      : file_(std::move(file)), device_(device) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = file_->Read(pos_, n, result, scratch);
    if (s.ok()) {
      device_->ChargeRead(file_->extent_base() + pos_, result->size());
      pos_ += result->size();
    }
    return s;
  }

  Status Skip(uint64_t n) override {
    pos_ += n;
    return Status::OK();
  }

 private:
  std::shared_ptr<FileState> file_;
  SimDevice* device_;
  uint64_t pos_ = 0;
};

class SimEnv::SimRandomAccessFile final : public RandomAccessFile {
 public:
  SimRandomAccessFile(std::shared_ptr<FileState> file, SimDevice* device)
      : file_(std::move(file)), device_(device) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = file_->Read(offset, n, result, scratch);
    if (s.ok()) {
      device_->ChargeRead(file_->extent_base() + offset, result->size());
    }
    return s;
  }

 private:
  std::shared_ptr<FileState> file_;
  SimDevice* device_;
};

// Writes land in the in-memory file immediately (so readers and recovery
// see exact bytes) while the device-time charge is batched per 256 KiB —
// modeling the OS page cache + write-back that the paper's unsynced WAL
// and table writes went through. Sync() charges whatever is pending.
class SimEnv::SimWritableFile final : public WritableFile {
 public:
  SimWritableFile(std::shared_ptr<FileState> file, SimDevice* device)
      : file_(std::move(file)), device_(device) {}

  ~SimWritableFile() override { ChargePending(); }

  Status Append(const Slice& data) override {
    const uint64_t offset = file_->Size();
    file_->Append(data);
    if (pending_bytes_ == 0) {
      pending_offset_ = offset;
    }
    pending_bytes_ += data.size();
    if (pending_bytes_ >= kWriteBackChunk) {
      ChargePending();
    }
    return Status::OK();
  }

  Status Close() override {
    ChargePending();
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }
  Status Sync() override {
    ChargePending();
    return Status::OK();
  }

 private:
  static constexpr uint64_t kWriteBackChunk = 256 * 1024;

  void ChargePending() {
    if (pending_bytes_ == 0) return;
    device_->ChargeWrite(file_->extent_base() + pending_offset_,
                         pending_bytes_);
    pending_offset_ = 0;
    pending_bytes_ = 0;
  }

  std::shared_ptr<FileState> file_;
  SimDevice* device_;
  uint64_t pending_offset_ = 0;
  uint64_t pending_bytes_ = 0;
};

SimEnv::SimEnv(DeviceProfile profile) : device_(std::move(profile)) {}

SimEnv::~SimEnv() = default;

std::shared_ptr<SimEnv::FileState> SimEnv::FindFile(const std::string& fname) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(fname);
  return it == files_.end() ? nullptr : it->second;
}

Status SimEnv::NewSequentialFile(const std::string& fname,
                                 std::unique_ptr<SequentialFile>* result) {
  auto file = FindFile(fname);
  if (file == nullptr) {
    result->reset();
    return Status::NotFound(fname);
  }
  result->reset(new SimSequentialFile(std::move(file), &device_));
  return Status::OK();
}

Status SimEnv::NewRandomAccessFile(const std::string& fname,
                                   std::unique_ptr<RandomAccessFile>* result) {
  auto file = FindFile(fname);
  if (file == nullptr) {
    result->reset();
    return Status::NotFound(fname);
  }
  result->reset(new SimRandomAccessFile(std::move(file), &device_));
  return Status::OK();
}

Status SimEnv::NewWritableFile(const std::string& fname,
                               std::unique_ptr<WritableFile>* result) {
  std::shared_ptr<FileState> file;
  {
    std::lock_guard<std::mutex> lock(mu_);
    file = std::make_shared<FileState>(next_extent_);
    next_extent_ += kExtentAlign;
    files_[fname] = file;
  }
  result->reset(new SimWritableFile(std::move(file), &device_));
  return Status::OK();
}

Status SimEnv::NewAppendableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) {
  std::shared_ptr<FileState> file = FindFile(fname);
  if (file == nullptr) {
    return NewWritableFile(fname, result);
  }
  result->reset(new SimWritableFile(std::move(file), &device_));
  return Status::OK();
}

bool SimEnv::FileExists(const std::string& fname) {
  return FindFile(fname) != nullptr;
}

Status SimEnv::GetChildren(const std::string& dir,
                           std::vector<std::string>* result) {
  result->clear();
  std::string prefix = dir;
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, state] : files_) {
    (void)state;
    if (name.size() > prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0) {
      std::string child = name.substr(prefix.size());
      // Only direct children.
      if (child.find('/') == std::string::npos) {
        result->push_back(std::move(child));
      }
    }
  }
  return Status::OK();
}

Status SimEnv::RemoveFile(const std::string& fname) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(fname) == 0) {
    return Status::NotFound(fname);
  }
  return Status::OK();
}

Status SimEnv::CreateDir(const std::string&) { return Status::OK(); }

Status SimEnv::RemoveDir(const std::string&) { return Status::OK(); }

Status SimEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  auto file = FindFile(fname);
  if (file == nullptr) {
    *size = 0;
    return Status::NotFound(fname);
  }
  *size = file->Size();
  return Status::OK();
}

Status SimEnv::RenameFile(const std::string& src, const std::string& target) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(src);
  if (it == files_.end()) {
    return Status::NotFound(src);
  }
  files_[target] = it->second;
  files_.erase(it);
  return Status::OK();
}

uint64_t SimEnv::NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SimEnv::SleepForMicroseconds(int micros) {
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

int SimEnv::StripeCount() {
  return std::max(1, device_.profile().stripe_count);
}

Status SimEnv::CorruptFile(const std::string& fname, uint64_t offset,
                           size_t n) {
  auto file = FindFile(fname);
  if (file == nullptr) return Status::NotFound(fname);
  return file->Corrupt(offset, n);
}

Status SimEnv::TruncateFile(const std::string& fname, uint64_t size) {
  auto file = FindFile(fname);
  if (file == nullptr) return Status::NotFound(fname);
  file->Truncate(size);
  return Status::OK();
}

}  // namespace pipelsm
