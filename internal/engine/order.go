package engine

import (
	"sort"

	"adskip/internal/storage"
)

// orderer is the ORDER BY consumer: it gathers every qualifying row id
// the walk hands it (no early exit — ordering needs the full match set),
// charging the gathered set against the result cap, and folds aggregates,
// if present, over the full match set.
type orderer struct {
	qc    *qctx
	accs  aggSink
	cols  []*storage.Column // projection
	by    *storage.Column
	desc  bool
	limit int
	rows  []uint32
}

func (o *orderer) covered(lo, hi int) error {
	for r := lo; r < hi; r++ {
		o.rows = append(o.rows, uint32(r))
	}
	if err := o.qc.checkResult(len(o.rows)); err != nil {
		return err
	}
	return o.accs.covered(lo, hi)
}

func (o *orderer) selected(rows []uint32) error {
	o.rows = append(o.rows, rows...)
	if err := o.qc.checkResult(len(o.rows)); err != nil {
		return err
	}
	return o.accs.selected(rows)
}

// finish sorts the gathered ids by the order column's codes (code order
// equals value order; NULLs last), truncates to the limit, then
// materializes.
func (o *orderer) finish(res *Result) error {
	rows, orderCol, desc := o.rows, o.by, o.desc
	codes := orderCol.Codes()
	isNull := func(r uint32) bool { return orderCol.IsNull(int(r)) }
	// Code order equals value order except on unsealed string dictionaries,
	// whose codes are insertion-ordered; compare their values directly.
	less := func(ri, rj uint32) bool { return codes[ri] < codes[rj] }
	if orderCol.Type() == storage.String && !orderCol.DictSorted() {
		d := orderCol.Dict()
		less = func(ri, rj uint32) bool { return d.Value(codes[ri]) < d.Value(codes[rj]) }
	}
	sort.SliceStable(rows, func(i, j int) bool {
		ri, rj := rows[i], rows[j]
		ni, nj := isNull(ri), isNull(rj)
		if ni || nj {
			return !ni && nj // NULLs sort last regardless of direction
		}
		if desc {
			return less(rj, ri)
		}
		return less(ri, rj)
	})
	if o.limit > 0 && len(rows) > o.limit {
		rows = rows[:o.limit]
	}
	for lo := 0; lo < len(rows); lo += checkpointRows {
		if lo > 0 {
			if err := o.qc.check(0); err != nil {
				return err
			}
		}
		appendRows(res, o.cols, rows[lo:min(lo+checkpointRows, len(rows))])
	}
	res.Count = len(res.Rows)
	return nil
}
