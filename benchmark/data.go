package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"ysmart"
	"ysmart/internal/server"
)

// paperQueries are the paper's five workload queries in round-robin order.
var paperQueries = []string{"Q17", "Q18", "Q21", "Q-CSA", "Q-AGG"}

// seeds are the generator seeds one benchmark seed derives: the TPC-H
// tables, the two click-stream versions serve-reuse alternates between,
// and the query-literal streams of serve-adhoc.
type seeds struct {
	tpch, clicksA, clicksB, literals int64
}

func deriveSeeds(seed int64) seeds {
	base := seed * 1_000_003
	return seeds{tpch: base + 1, clicksA: base + 2, clicksB: base + 3, literals: base + 4}
}

// generate builds the TPC-H subset and one click-stream version at the
// default generator sizes.
func generate(tpchSeed, clicksSeed int64) (map[string][]ysmart.Row, error) {
	tcfg := ysmart.DefaultTPCH()
	tcfg.Seed = tpchSeed
	tables, err := ysmart.GenerateTPCH(tcfg)
	if err != nil {
		return nil, err
	}
	ccfg := ysmart.DefaultClicks()
	ccfg.Seed = clicksSeed
	clicks, err := ysmart.GenerateClicks(ccfg)
	if err != nil {
		return nil, err
	}
	for name, rows := range clicks {
		tables[name] = rows
	}
	return tables, nil
}

// renderRows renders result rows the way the server puts them on the
// wire: one tab-separated line per row, cells in PostgreSQL text format.
func renderRows(rows []ysmart.Row) []string {
	out := make([]string, len(rows))
	cells := []string{}
	for i, row := range rows {
		cells = cells[:0]
		for _, v := range row {
			cells = append(cells, server.TextValue(v))
		}
		out[i] = strings.Join(cells, "\t")
	}
	return out
}

// renderWire renders a wire result like renderRows (a NULL cell reads
// "NULL", as TextValue spells a null value).
func renderWire(res *server.QueryResult) []string {
	out := make([]string, len(res.Rows))
	cells := []string{}
	for i, row := range res.Rows {
		cells = cells[:0]
		for _, c := range row {
			if c == nil {
				cells = append(cells, "NULL")
			} else {
				cells = append(cells, *c)
			}
		}
		out[i] = strings.Join(cells, "\t")
	}
	return out
}

// digest hashes rendered rows in sorted order, so a result compares equal
// to the oracle's whatever order the rows arrived in. It sorts lines in
// place.
func digest(lines []string) uint64 {
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// oracleDigest runs sql on the single-node DBMS oracle over tables.
func oracleDigest(sql string, tables map[string][]ysmart.Row) (uint64, error) {
	cat := ysmart.WorkloadCatalog()
	q, err := ysmart.Parse(sql, cat)
	if err != nil {
		return 0, err
	}
	rows, err := ysmart.OracleResult(q, cat, tables)
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	return digest(renderRows(rows)), nil
}
