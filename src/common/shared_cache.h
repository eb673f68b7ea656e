/**
 * @file
 * Process-wide cache of immutable objects, held by weak reference.
 *
 * Some products are costly to build and read-only once built: a loaded,
 * content-verified trace container; a synthetic profile's static code.
 * A sweep uses each many times over (shards x SMT threads), and every
 * user of one key should share one object. The cache must not pin
 * them, though: an entry lives exactly as long as some holder does, so
 * an idle daemon does not keep everything it ever served.
 */

#ifndef P10EE_COMMON_SHARED_CACHE_H
#define P10EE_COMMON_SHARED_CACHE_H

#include <cstddef>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>

namespace p10ee::common {

/**
 * Weak map from @p Key to shared `const T`, safe to use from any
 * thread. Objects are built outside the lock, so a slow build of one
 * key never blocks lookups of another; two threads that miss on the
 * same key at once may both build, and the first to publish wins.
 */
template <typename Key, typename T>
class SharedCache
{
  public:
    /** The live object for @p key, or nullptr. */
    std::shared_ptr<const T>
    find(const Key& key) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = map_.find(key);
        return it == map_.end() ? nullptr : it->second.lock();
    }

    /**
     * Publish @p value under @p key and return the object every holder
     * of @p key should use: @p value, or a live object another thread
     * published first. Expired entries are pruned first, so the map
     * never holds more than the live keys plus this one, however many
     * distinct keys pass through it.
     */
    std::shared_ptr<const T>
    publish(const Key& key, std::shared_ptr<const T> value)
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (auto it = map_.begin(); it != map_.end();)
            it = it->second.expired() ? map_.erase(it) : std::next(it);
        auto [it, inserted] = map_.try_emplace(key, value);
        if (!inserted) {
            if (std::shared_ptr<const T> live = it->second.lock())
                return live;
            it->second = value;
        }
        return value;
    }

    /** find(), or publish(build()) with build() run outside the lock. */
    template <typename Build>
    std::shared_ptr<const T>
    getOrBuild(const Key& key, Build&& build)
    {
        if (std::shared_ptr<const T> hit = find(key))
            return hit;
        return publish(key, build());
    }

    /** Entries in the map, live or not yet pruned. */
    size_t
    size() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return map_.size();
    }

  private:
    mutable std::mutex mu_;
    std::map<Key, std::weak_ptr<const T>> map_;
};

} // namespace p10ee::common

#endif // P10EE_COMMON_SHARED_CACHE_H
