package sqlparse

import (
	"sync"

	"github.com/stripdb/strip/internal/types"
)

// cacheCap bounds the statement cache. A workload is a small set of
// statement templates; a client that keeps sending new ones evicts at
// random instead of growing the table.
const cacheCap = 1024

// Cache is an engine's statement cache: every text entry point — served
// QUERY/EXEC, DB.Exec/ExecIn/Explain, SQL run by rule actions — turns text
// into a statement through Prepare, so a statement seen before is neither
// parsed, compiled nor planned again. Entries are keyed by normalised text
// (see normalize) and hold the parsed template; the template's compiled
// plan lives on it (query.Select, query.UpdateStmt, query.DeleteStmt keep
// their own, checked against the catalog on every run), so DDL needs no
// invalidation here.
type Cache struct {
	mu sync.RWMutex
	m  map[string]Stmt
}

// NewCache returns an empty statement cache.
func NewCache() *Cache { return &Cache{m: make(map[string]Stmt)} }

// Prepare returns the statement for sql and the values to run it with. A
// SELECT, UPDATE or DELETE comes from the cache as a template shared by all
// callers — immutable, with placeholders where sql has literals — plus this
// text's literals in placeholder order; it is parsed only the first time
// its normalised form is seen. Any other statement is parsed as written
// and has no parameters. Only statements that parse are cached, and a
// rejected text gets the parser's own error.
func (c *Cache) Prepare(sql string) (Stmt, []types.Value, error) {
	var buf [256]byte
	key, params, ok, err := normalize(sql, buf[:0])
	if !ok || err != nil {
		// Not a cached kind of statement, or one the parser will reject
		// where the scanner did.
		stmt, err := Parse(sql)
		return stmt, nil, err
	}
	c.mu.RLock()
	stmt := c.m[string(key)]
	c.mu.RUnlock()
	if stmt != nil {
		return stmt, params, nil
	}
	stmt, err = parse(sql, true)
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	if prior := c.m[string(key)]; prior != nil {
		stmt = prior // another caller's miss got here first; share its plan
	} else {
		if len(c.m) >= cacheCap {
			for victim := range c.m {
				delete(c.m, victim)
				break
			}
		}
		c.m[string(key)] = stmt
	}
	c.mu.Unlock()
	return stmt, params, nil
}

// Len reports how many templates the cache holds.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
