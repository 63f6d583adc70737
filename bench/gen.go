package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
)

// Common schema sizes (ISSUE 12): 5,000 stocks, 200 composites of 50
// distinct members each. All numerics are ints so every gate compares
// exactly, and because sqlparse rejects the exponent literals %g produces.
const (
	nStocks  = 5000
	nComps   = 200
	compSize = 50
	nConns   = 2 // exactly two client connections generate all load
)

// opClass is a statement class; per-class metrics carry its name as suffix.
type opClass uint8

const (
	clsPoint opClass = iota
	clsJoin
	clsScan
	clsUpdate
	nClasses
)

var classNames = [nClasses]string{"point", "join", "scan", "update"}

func symbol(i int) string { return fmt.Sprintf("S%04d", i) }
func comp(i int) string   { return fmt.Sprintf("C%03d", i) }

// definingQuery is what comp_prices and comp_view must equal at quiescence.
const definingQuery = `select comp, sum(weight*price) as price from stocks, comps_list ` +
	`where stocks.symbol = comps_list.symbol group by comp`

// schemaData is the seeded initial database content.
type schemaData struct {
	price   []int   // initial price per stock, 100..199
	members [][]int // per composite: compSize distinct stock ids
	weights [][]int // per composite: weight 1..9 per member
}

func genSchema(seed int64) *schemaData {
	rng := rand.New(rand.NewSource(seed))
	s := &schemaData{price: make([]int, nStocks)}
	for i := range s.price {
		s.price[i] = 100 + rng.Intn(100)
	}
	// Members are random but balanced: every stock is in exactly
	// nComps*compSize/nStocks = 2 composites, so an update fires the rule
	// for two composites whichever stocks a seed makes hot, and CPU per
	// update does not depend on the seed. Deal a shuffled deck holding
	// each stock twice; a composite dealt the same stock twice swaps one
	// copy with a card elsewhere that makes no duplicate in either hand.
	const copies = nComps * compSize / nStocks
	deck := make([]int, 0, nComps*compSize)
	for c := 0; c < copies; c++ {
		for i := 0; i < nStocks; i++ {
			deck = append(deck, i)
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	hand := func(c int) []int { return deck[c*compSize : (c+1)*compSize] }
	holds := func(c, stock, except int) bool {
		for i, m := range hand(c) {
			if m == stock && c*compSize+i != except {
				return true
			}
		}
		return false
	}
	for pos := range deck {
		for holds(pos/compSize, deck[pos], pos) {
			other := rng.Intn(len(deck))
			if !holds(other/compSize, deck[pos], other) && !holds(pos/compSize, deck[other], pos) {
				deck[pos], deck[other] = deck[other], deck[pos]
			}
		}
	}
	for c := 0; c < nComps; c++ {
		s.members = append(s.members, hand(c))
		w := make([]int, compSize)
		for i := range w {
			w[i] = 1 + rng.Intn(9)
		}
		s.weights = append(s.weights, w)
	}
	return s
}

// compPrice is a composite's price at the initial stock prices.
func (s *schemaData) compPrice(c int) int {
	sum := 0
	for i, m := range s.members[c] {
		sum += s.weights[c][i] * s.price[m]
	}
	return sum
}

// loadStatements returns the DDL and multi-row inserts that build the
// common schema; the bench runs them through embedded Exec.
func (s *schemaData) loadStatements() []string {
	out := []string{
		`create table stocks (symbol text, price int)`,
		`create table comps_list (comp text, symbol text, weight int)`,
		`create table comp_prices (comp text, price int)`,
	}
	const batch = 500
	var rows []string
	flush := func(table string) {
		if len(rows) > 0 {
			out = append(out, "insert into "+table+" values "+strings.Join(rows, ", "))
			rows = rows[:0]
		}
	}
	for i, p := range s.price {
		rows = append(rows, fmt.Sprintf("('%s', %d)", symbol(i), p))
		if len(rows) == batch {
			flush("stocks")
		}
	}
	flush("stocks")
	for c := range s.members {
		for i, m := range s.members[c] {
			rows = append(rows, fmt.Sprintf("('%s', '%s', %d)", comp(c), symbol(m), s.weights[c][i]))
			if len(rows) == batch {
				flush("comps_list")
			}
		}
	}
	flush("comps_list")
	for c := range s.members {
		rows = append(rows, fmt.Sprintf("('%s', %d)", comp(c), s.compPrice(c)))
	}
	flush("comp_prices")
	// Indexes after the load, so the load is not paying per-row index upkeep.
	return append(out,
		`create index on stocks (symbol)`,
		`create index on comps_list (symbol)`,
		`create index on comps_list (comp)`,
		`create index on comp_prices (comp)`)
}

// op is one generated statement plus what the checker needs to know.
type op struct {
	class opClass
	sql   string
	stock int // point, update: the stock addressed
	price int // update: the price written
}

// generator produces one connection's statement stream. It depends only on
// (seed, conn): the engine's timing never feeds back into what is sent.
//
// Connection c updates only stocks with id%nConns == c, so it always knows
// the committed price of the stocks it owns: it can avoid re-writing a
// stock's current price (every update is a real change) and can check that
// its own acked updates are what reads return.
type generator struct {
	conn  int
	rng   *rand.Rand
	zipf  *rand.Zipf
	own   []int        // Zipf rank -> stock id, a seeded shuffle of the owned ids
	cur   []int        // committed price per stock (owned entries only)
	dirty map[int]bool // owned stocks whose last update failed: price unknown
	seq   int
}

func newGenerator(seed int64, conn int, s *schemaData) *generator {
	rng := rand.New(rand.NewSource(seed*7919 + int64(conn) + 1))
	g := &generator{conn: conn, rng: rng, cur: append([]int(nil), s.price...), dirty: map[int]bool{}}
	for i := conn; i < nStocks; i += nConns {
		g.own = append(g.own, i)
	}
	rng.Shuffle(len(g.own), func(i, j int) { g.own[i], g.own[j] = g.own[j], g.own[i] })
	// Update keys are Zipf(s=1.1, v=8) over the owned stocks.
	g.zipf = rand.NewZipf(rng, 1.1, 8, uint64(len(g.own)-1))
	return g
}

// update returns a single-row price update of a Zipf-chosen owned stock.
func (g *generator) update() op {
	st := g.own[g.zipf.Uint64()]
	step := 1 + g.rng.Intn(10)
	if g.rng.Intn(2) == 0 {
		step = -step
	}
	if p := g.cur[st] + step; p < 50 || p > 250 {
		step = -step
	}
	g.cur[st] += step
	return op{class: clsUpdate, stock: st, price: g.cur[st],
		sql: fmt.Sprintf("update stocks set price = %d where symbol = '%s'", g.cur[st], symbol(st))}
}

// read returns one statement of a read class.
func (g *generator) read(class opClass) op {
	g.seq++
	switch class {
	case clsPoint:
		// A different text every time: the second predicate is always true
		// (prices stay below 251) and carries a literal that never repeats,
		// so only a cache that normalises literals can hit.
		st := g.rng.Intn(nStocks)
		return op{class: clsPoint, stock: st, sql: fmt.Sprintf(
			"select symbol, price from stocks where symbol = '%s' and price < %d",
			symbol(st), 1_000_000+g.seq*nConns+g.conn)}
	case clsJoin:
		// 200 distinct texts that repeat: a text-keyed cache can hit.
		return op{class: clsJoin, sql: fmt.Sprintf(
			"select sum(weight*price) as v from comps_list, stocks "+
				"where comps_list.comp = '%s' and stocks.symbol = comps_list.symbol",
			comp(g.rng.Intn(nComps)))}
	default:
		if g.seq%2 == 0 {
			return op{class: clsScan, sql: "select sum(price) as s from stocks"}
		}
		return op{class: clsScan, sql: "select symbol, price from stocks where price >= 145"}
	}
}

// mixed is the read_mix stream: per 100 ops 80 point, 16 join, 2 scan,
// 2 update.
func (g *generator) mixed() op {
	switch r := g.rng.Intn(100); {
	case r < 80:
		return g.read(clsPoint)
	case r < 96:
		return g.read(clsJoin)
	case r < 98:
		return g.read(clsScan)
	default:
		return g.update()
	}
}

// reads is the read tail of the write workloads: the read_mix proportions
// without the updates.
func (g *generator) reads() op {
	switch r := g.rng.Intn(98); {
	case r < 80:
		return g.read(clsPoint)
	case r < 96:
		return g.read(clsJoin)
	default:
		return g.read(clsScan)
	}
}

// streamHash fingerprints the first n statements every connection would
// send on the given stream, for the determinism test.
func streamHash(seed int64, n int, next func(*generator) op) string {
	s := genSchema(seed)
	h := sha256.New()
	for c := 0; c < nConns; c++ {
		g := newGenerator(seed, c, s)
		for i := 0; i < n; i++ {
			h.Write([]byte(next(g).sql))
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
