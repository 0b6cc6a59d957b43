#include "gpusim/audit.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>

#include "util/bytes.h"
#include "util/check.h"
#include "util/logging.h"

namespace menos::gpusim {

namespace {

// How many freed pointers to remember for double-free detection. Past the
// window a stale re-free degrades from "double free" to "foreign pointer" —
// still an error, just a vaguer diagnosis.
constexpr std::size_t kFreedHistoryLimit = 1 << 16;

const std::string& untagged() {
  static const std::string tag = "untagged";
  return tag;
}

thread_local std::string t_alloc_tag;  // empty means untagged()

}  // namespace

AllocTagScope::AllocTagScope(std::string tag) : previous_(std::move(t_alloc_tag)) {
  t_alloc_tag = std::move(tag);
}

AllocTagScope::~AllocTagScope() { t_alloc_tag = std::move(previous_); }

const std::string& AllocTagScope::current() noexcept {
  return t_alloc_tag.empty() ? untagged() : t_alloc_tag;
}

AuditDevice::AuditDevice(std::unique_ptr<Device> inner, AuditOptions options)
    : inner_(std::move(inner)),
      options_(options),
      mutex_(decorator_lock_name("gpusim.audit", inner_.get()).c_str(),
             decorator_lock_rank(50, inner_.get())) {}

AuditDevice::~AuditDevice() {
  util::MutexLock lock(mutex_);
  if (!live_.empty()) {
    MENOS_LOG(Error) << "AuditDevice '" << inner_->name() << "' destroyed with "
                     << live_.size() << " live allocation(s):\n"
                     << leak_report_locked();
  }
  // Reclaim everything we still know about so the bytes are not lost (and
  // LeakSanitizer stays quiet about *intentional* leak-table tests).
  for (const auto& [ptr, info] : live_) inner_->deallocate(ptr, info.bytes);
  live_.clear();
  flush_quarantine_locked();
}

void* AuditDevice::allocate(std::size_t bytes) {
  void* ptr = nullptr;
  try {
    ptr = inner_->allocate(bytes);
  } catch (const OutOfMemory&) {
    {
      util::MutexLock lock(mutex_);
      if (quarantine_total_ == 0) throw;
      // The quarantine holds real capacity hostage; release it and retry
      // once so auditing never changes what fits on the device.
      flush_quarantine_locked();
    }
    ptr = inner_->allocate(bytes);
  }
  util::MutexLock lock(mutex_);
  live_[ptr] = Live{bytes, AllocTagScope::current()};
  if (freed_history_.erase(ptr) != 0) {
    // Address reused by the allocator: it no longer identifies the old
    // block, so forget it (freed_order_ lazily skips erased entries).
  }
  return ptr;
}

void AuditDevice::deallocate(void* ptr, std::size_t bytes) noexcept {
  if (ptr == nullptr) return;
  util::MutexLock lock(mutex_);
  const auto it = live_.find(ptr);
  if (it == live_.end()) {
    std::ostringstream os;
    os << "device '" << inner_->name() << "': ";
    if (freed_history_.count(ptr) != 0) {
      os << "double free of " << ptr << " (" << bytes << " bytes)";
      report_error(AuditErrorRecord::Kind::DoubleFree, os.str());
    } else {
      os << "deallocate of foreign pointer " << ptr << " (" << bytes
         << " bytes) never allocated here";
      report_error(AuditErrorRecord::Kind::ForeignPointer, os.str());
    }
    return;  // drop the bad free — forwarding it would corrupt the heap
  }
  const std::size_t actual = it->second.bytes;
  if (actual != bytes) {
    std::ostringstream os;
    os << "device '" << inner_->name() << "': deallocate of " << ptr
       << " with size " << bytes << " but it was allocated with size "
       << actual << " (tag '" << it->second.tag << "')";
    report_error(AuditErrorRecord::Kind::SizeMismatch, os.str());
    // Fall through and free with the TRUE size so accounting stays exact.
  }
  live_.erase(it);

  // Poison so any dangling reader sees garbage, not stale tensor data.
  // Zero-byte allocations are a 1-byte sentinel; nothing to poison.
  if (actual > 0) std::memset(ptr, kPoisonByte, actual);

  freed_history_.insert(ptr);
  freed_order_.push_back(ptr);
  while (freed_order_.size() > kFreedHistoryLimit) {
    freed_history_.erase(freed_order_.front());
    freed_order_.pop_front();
  }

  if (options_.quarantine_bytes == 0) {
    inner_->deallocate(ptr, actual);
    return;
  }
  quarantine_.push_back(Quarantined{ptr, actual});
  quarantine_total_ += actual;
  ++deferred_frees_;
  while (quarantine_total_ > options_.quarantine_bytes && !quarantine_.empty()) {
    const Quarantined oldest = quarantine_.front();
    quarantine_.pop_front();
    quarantine_total_ -= oldest.bytes;
    --deferred_frees_;
    inner_->deallocate(oldest.ptr, oldest.bytes);
  }
}

std::size_t AuditDevice::reset_peak() {
  // Same lock order and quarantine adjustment as stats().
  const std::size_t inner_level = inner_->reset_peak();
  util::MutexLock lock(mutex_);
  return inner_level - quarantine_total_;
}

MemoryStats AuditDevice::stats() const {
  MemoryStats s = inner_->stats();
  util::MutexLock lock(mutex_);
  // Quarantined blocks are logically freed; the inner device just has not
  // been told yet. Report them as such so auditing is accounting-neutral.
  s.allocated -= quarantine_total_;
  s.lifetime_frees += deferred_frees_;
  return s;
}

void AuditDevice::report_error(AuditErrorRecord::Kind kind,
                               std::string message) const {
  if (options_.abort_on_error) {
    MENOS_LOG(Error) << "allocation audit: " << message;
    // Also straight to stderr: the log threshold may filter Error in
    // exotic configurations, and this is the last thing the process says.
    std::cerr << "allocation audit: " << message  // NOLINT(iostream-side-channel)
              << std::endl;                       // NOLINT(iostream-side-channel)
    std::abort();
  }
  errors_.push_back(AuditErrorRecord{kind, std::move(message)});
}

void AuditDevice::flush_quarantine_locked() {
  for (const Quarantined& q : quarantine_) inner_->deallocate(q.ptr, q.bytes);
  quarantine_.clear();
  quarantine_total_ = 0;
  deferred_frees_ = 0;
}

std::string AuditDevice::leak_report_locked() const {
  if (live_.empty()) return "";
  // tag -> {bytes, count}, ordered for stable output.
  std::map<std::string, std::pair<std::size_t, std::size_t>> by_tag;
  for (const auto& [ptr, info] : live_) {
    auto& entry = by_tag[info.tag];
    entry.first += info.bytes;
    entry.second += 1;
  }
  std::ostringstream os;
  os << "  leaked allocations by tag:\n";
  for (const auto& [tag, entry] : by_tag) {
    os << "    " << tag << ": " << entry.first << " bytes ("
       << util::format_bytes(entry.first) << ") in " << entry.second
       << " allocation(s)\n";
  }
  return os.str();
}

std::vector<AuditErrorRecord> AuditDevice::errors() const {
  util::MutexLock lock(mutex_);
  return errors_;
}

std::size_t AuditDevice::live_count() const {
  util::MutexLock lock(mutex_);
  return live_.size();
}

std::unordered_map<std::string, std::size_t> AuditDevice::live_bytes_by_tag()
    const {
  util::MutexLock lock(mutex_);
  std::unordered_map<std::string, std::size_t> out;
  for (const auto& [ptr, info] : live_) out[info.tag] += info.bytes;
  return out;
}

std::string AuditDevice::leak_report() const {
  util::MutexLock lock(mutex_);
  return leak_report_locked();
}

std::unique_ptr<Device> make_audit_device(std::unique_ptr<Device> inner,
                                          AuditOptions options) {
  MENOS_CHECK_MSG(inner != nullptr, "make_audit_device needs a device");
  return std::make_unique<AuditDevice>(std::move(inner), options);
}

AuditDevice* as_audit_device(Device& device) noexcept {
  return dynamic_cast<AuditDevice*>(&device);
}

}  // namespace menos::gpusim
