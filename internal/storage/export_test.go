package storage

// StatsComputed reports whether the column holds cached statistics.
func (c *Column) StatsComputed() bool {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats != nil
}
