// Hash map that additionally maintains insertion order with an intrusive
// doubly-linked list, supporting amortized O(1) find/insert/erase and O(1)
// pop_front. The paper (§6.2) uses exactly this structure ("linked hash-map")
// for the residual direct index R and the Q array: items are inserted in
// time order, so expiring items older than the horizon is a sequence of
// pop_front calls.
#ifndef SSSJ_UTIL_LINKED_HASH_MAP_H_
#define SSSJ_UTIL_LINKED_HASH_MAP_H_

#include <cassert>
#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace sssj {

template <typename K, typename V, typename Hash = std::hash<K>>
class LinkedHashMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::list<value_type>::iterator;
  using const_iterator = typename std::list<value_type>::const_iterator;

  LinkedHashMap() = default;
  LinkedHashMap(const LinkedHashMap& other) { *this = other; }
  LinkedHashMap& operator=(const LinkedHashMap& other) {
    if (this == &other) return *this;
    order_ = other.order_;
    index_.clear();
    for (auto it = order_.begin(); it != order_.end(); ++it) index_[it->first] = it;
    return *this;
  }
  LinkedHashMap(LinkedHashMap&&) noexcept = default;
  LinkedHashMap& operator=(LinkedHashMap&&) noexcept = default;

  size_t size() const { return order_.size(); }
  bool empty() const { return order_.empty(); }

  bool contains(const K& key) const { return index_.count(key) > 0; }

  // Returns nullptr when absent.
  V* find(const K& key) {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }
  const V* find(const K& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  // Inserts at the back of the order list; if the key exists, the value is
  // replaced in place (order position is preserved). Returns a reference to
  // the stored value.
  V& insert(const K& key, V value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      return it->second->second;
    }
    order_.emplace_back(key, std::move(value));
    auto list_it = std::prev(order_.end());
    index_.emplace(key, list_it);
    return list_it->second;
  }

  // Returns the value stored under `key` and whether it was absent; an
  // absent key first gets a default-constructed value at the back of the
  // order list. One hash lookup either way.
  std::pair<V*, bool> try_emplace(const K& key) {
    auto [it, inserted] = index_.try_emplace(key);
    if (inserted) {
      order_.emplace_back(key, V{});
      it->second = std::prev(order_.end());
    }
    return {&it->second->second, inserted};
  }

  bool erase(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  // Oldest (first-inserted) entry. Precondition: !empty().
  value_type& front() {
    assert(!empty());
    return order_.front();
  }
  const value_type& front() const {
    assert(!empty());
    return order_.front();
  }

  void pop_front() {
    assert(!empty());
    index_.erase(order_.front().first);
    order_.pop_front();
  }

  void clear() {
    order_.clear();
    index_.clear();
  }

  // Iteration follows insertion order (oldest first).
  iterator begin() { return order_.begin(); }
  iterator end() { return order_.end(); }
  const_iterator begin() const { return order_.begin(); }
  const_iterator end() const { return order_.end(); }

 private:
  std::list<value_type> order_;
  std::unordered_map<K, iterator, Hash> index_;
};

}  // namespace sssj

#endif  // SSSJ_UTIL_LINKED_HASH_MAP_H_
