package replay

// WriteAtomic is writeAtomic, for the store tests of package replay_test.
var WriteAtomic = writeAtomic

// SetBudget replaces the cache's bytes budget (stageBudget): the eviction
// tests' way to a cache that holds one kernel at a time. Nothing outside
// the tests can set it.
func (c *StageCache) SetBudget(bytes int64) { c.budget = bytes }

// SetBudget replaces the store's bytes budget (storeBudget), as above.
func (s *KernelStore) SetBudget(bytes int64) { s.budget = bytes }
