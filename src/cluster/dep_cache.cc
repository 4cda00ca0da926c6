#include "src/cluster/dep_cache.h"

#include <cassert>

namespace squeezy {

DepCache::DepCache(size_t nr_hosts) : nr_hosts_(nr_hosts), hosts_(nr_hosts) {
  assert(nr_hosts > 0);
}

DepImageId DepCache::Intern(const std::string& key, uint64_t region_bytes) {
  const auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    assert(images_[static_cast<size_t>(it->second)].region_bytes == region_bytes &&
           "one key, one image size");
    return it->second;
  }
  const DepImageId img = static_cast<DepImageId>(images_.size());
  images_.push_back(Image{key, region_bytes});
  by_key_.emplace(key, img);
  for (auto& h : hosts_) {
    h.resize(images_.size());
  }
  ++stats_.images;
  return img;
}

uint64_t DepCache::region_bytes(DepImageId img) const {
  return images_[static_cast<size_t>(img)].region_bytes;
}

DepCache::Residency& DepCache::at(size_t host, DepImageId img) {
  assert(host < hosts_.size());
  assert(img >= 0 && static_cast<size_t>(img) < images_.size());
  return hosts_[host][static_cast<size_t>(img)];
}

const DepCache::Residency& DepCache::at(size_t host, DepImageId img) const {
  return const_cast<DepCache*>(this)->at(host, img);
}

bool DepCache::PinImage(size_t host, DepImageId img) {
  Residency& r = at(host, img);
  ++stats_.pins;
  if (r.resident) {
    ++stats_.boot_dedup_hits;
    stats_.boot_bytes_saved += images_[static_cast<size_t>(img)].region_bytes;
    return true;
  }
  r.resident = true;
  return false;
}

uint64_t DepCache::EvictImage(size_t host, DepImageId img) {
  Residency& r = at(host, img);
  if (!r.resident) {
    return 0;
  }
  assert(r.refs == 0 && "only unreferenced images are evictable");
  r.resident = false;
  r.populated = false;
  ++stats_.evictions;
  const uint64_t bytes = images_[static_cast<size_t>(img)].region_bytes;
  stats_.evicted_bytes += bytes;
  return bytes;
}

bool DepCache::Resident(size_t host, DepImageId img) const {
  return at(host, img).resident;
}

void DepCache::AddRef(size_t host, DepImageId img) {
  Residency& r = at(host, img);
  assert(r.resident && "references only on resident images");
  ++r.refs;
}

void DepCache::ReleaseRef(size_t host, DepImageId img) {
  Residency& r = at(host, img);
  assert(r.refs > 0);
  --r.refs;
}

uint64_t DepCache::RefCount(size_t host, DepImageId img) const {
  return at(host, img).refs;
}

void DepCache::MarkPopulated(size_t host, DepImageId img) {
  Residency& r = at(host, img);
  assert(r.resident && "population implies residency");
  r.populated = true;
}

bool DepCache::Populated(size_t host, DepImageId img) const {
  return at(host, img).populated;
}

bool DepCache::PopulatedElsewhere(size_t host, DepImageId img) const {
  for (size_t h = 0; h < hosts_.size(); ++h) {
    if (h != host && hosts_[h][static_cast<size_t>(img)].populated) {
      return true;
    }
  }
  return false;
}

void DepCache::RecordWireHit(uint64_t bytes) {
  ++stats_.wire_hits;
  stats_.wire_bytes_saved += bytes;
}

uint64_t DepCache::charged_bytes(size_t host) const {
  uint64_t total = 0;
  for (size_t i = 0; i < images_.size(); ++i) {
    if (hosts_[host][i].resident) {
      total += images_[i].region_bytes;
    }
  }
  return total;
}

std::vector<std::pair<std::string, uint64_t>> DepCache::ChargedImages(
    size_t host) const {
  std::vector<std::pair<std::string, uint64_t>> out;
  // by_key_ is ordered: the dump is key-sorted no matter what order the
  // images were interned in.
  for (const auto& [key, img] : by_key_) {
    if (hosts_[host][static_cast<size_t>(img)].resident) {
      out.emplace_back(key, images_[static_cast<size_t>(img)].region_bytes);
    }
  }
  return out;
}

}  // namespace squeezy
