package distrib

import (
	"container/list"
	"sync"
)

// blockCacheBytes bounds each worker's cache of DFS blocks and side
// files. The rule: twice the distinct bytes a distributed self-join of
// 5·10⁴ records reads (16 MB: its input, which Stages 1, 2 and 3 each
// read, its side files and its intermediate files), so a join's
// re-reads all hit and, least recently used first out, its input
// outlives the next join's intermediates.
const blockCacheBytes = 32 << 20

// blockKey names immutable bytes: one block of one file identity
// (dfs.Split.FileID), or with block -1 the whole file.
type blockKey struct {
	file  uint64
	block int
}

// blockCache is a worker's least-recently-used cache of what it read.
type blockCache struct {
	mu    sync.Mutex
	bytes int
	lru   list.List // of *cached, most recent at the front
	index map[blockKey]*list.Element
}

type cached struct {
	key  blockKey
	data []byte
}

// read returns key's bytes, calling fetch and keeping its result on a
// miss. Concurrent misses on one key may both fetch.
func (c *blockCache) read(key blockKey, fetch func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	if e, ok := c.index[key]; ok {
		c.lru.MoveToFront(e)
		c.mu.Unlock()
		return e.Value.(*cached).data, nil
	}
	c.mu.Unlock()
	data, err := fetch()
	if err != nil || len(data) > blockCacheBytes {
		return data, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.index == nil {
		c.index = map[blockKey]*list.Element{}
	}
	if _, ok := c.index[key]; !ok {
		c.index[key] = c.lru.PushFront(&cached{key, data})
		c.bytes += len(data)
	}
	for c.bytes > blockCacheBytes {
		old := c.lru.Remove(c.lru.Back()).(*cached)
		delete(c.index, old.key)
		c.bytes -= len(old.data)
	}
	return data, nil
}
