package query

import "github.com/stripdb/strip/internal/types"

// SetSQLFrontEnd installs the SQL front end the oracle runs text through
// (see sqlFrontEnd); called from the external test package's init.
func SetSQLFrontEnd(parse func(string) (*Select, error), newCache func() func(string) (*Select, []types.Value, error), parses func() int64) {
	sqlFrontEnd.parse, sqlFrontEnd.newCache, sqlFrontEnd.parses = parse, newCache, parses
}
