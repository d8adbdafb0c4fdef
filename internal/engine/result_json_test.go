package engine

import (
	"encoding/json"
	"testing"

	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// jsonTable is a tiny fixed table (no RNG) so the golden strings below
// are fully deterministic.
func jsonTable(t *testing.T) *Engine {
	t.Helper()
	tb := table.MustNew("j", table.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "price", Type: storage.Float64},
		{Name: "city", Type: storage.String},
	})
	rows := []struct {
		id    storage.Value
		price storage.Value
		city  storage.Value
	}{
		{storage.IntValue(1), storage.FloatValue(9.5), storage.StringValue("oslo")},
		{storage.IntValue(2), storage.NullValue(storage.Float64), storage.StringValue("bergen")},
		{storage.IntValue(3), storage.FloatValue(12.25), storage.NullValue(storage.String)},
	}
	for _, r := range rows {
		if err := tb.AppendRow(r.id, r.price, r.city); err != nil {
			t.Fatal(err)
		}
	}
	return New(tb, Options{}) // no skippers: stats stay deterministic
}

// TestResultMarshalJSONGolden pins the wire encoding of Result: column
// names and types, Go-typed cells, null handling, aggregate values, and
// the stats block. internal/proto.Result decodes this shape — if one of
// these strings needs to change, the protocol changed.
func TestResultMarshalJSONGolden(t *testing.T) {
	e := jsonTable(t)
	cases := []struct {
		name string
		q    Query
		want string
	}{
		{
			name: "projection with nulls",
			q:    Query{Select: []string{"id", "price", "city"}},
			want: `{"count":3,"columns":[{"name":"id","type":"BIGINT"},{"name":"price","type":"DOUBLE"},{"name":"city","type":"VARCHAR"}],"rows":[[1,9.5,"oslo"],[2,null,"bergen"],[3,12.25,null]],"stats":{"rows_scanned":0,"rows_skipped":0,"rows_covered":3,"zones_probed":0,"skippers_used":0}}`,
		},
		{
			name: "empty projection keeps rows array",
			q: Query{Select: []string{"id"},
				Where: expr.Conj{Preds: []expr.Pred{{Col: "id", Op: expr.GT, Args: []storage.Value{storage.IntValue(99)}}}}},
			want: `{"count":0,"columns":[{"name":"id","type":"BIGINT"}],"rows":[],"stats":{"rows_scanned":3,"rows_skipped":0,"rows_covered":0,"zones_probed":0,"skippers_used":0}}`,
		},
		{
			name: "count only",
			q:    Query{Aggs: []Agg{{Kind: CountStar}}},
			want: `{"count":3,"aggs":[3],"stats":{"rows_scanned":0,"rows_skipped":0,"rows_covered":3,"zones_probed":0,"skippers_used":0}}`,
		},
		{
			name: "aggregates over data",
			q:    Query{Aggs: []Agg{{Kind: Sum, Col: "id"}, {Kind: Avg, Col: "id"}, {Kind: Min, Col: "price"}}},
			want: `{"count":3,"aggs":[6,2,9.5],"stats":{"rows_scanned":0,"rows_skipped":0,"rows_covered":3,"zones_probed":0,"skippers_used":0}}`,
		},
		{
			name: "group by carries key and agg types",
			q:    Query{GroupBy: "city", Aggs: []Agg{{Kind: CountStar}}},
			want: `{"count":3,"columns":[{"name":"city","type":"VARCHAR"},{"name":"COUNT(*)","type":"BIGINT"}],"rows":[["bergen",1],["oslo",1],[null,1]],"stats":{"rows_scanned":0,"rows_skipped":0,"rows_covered":3,"zones_probed":0,"skippers_used":0}}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := e.Query(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Errorf("wire encoding drifted\n got: %s\nwant: %s", got, tc.want)
			}
			// The encoding must round-trip as generic JSON (no NaN leaks).
			var v map[string]any
			if err := json.Unmarshal(got, &v); err != nil {
				t.Fatalf("round-trip: %v", err)
			}
		})
	}
}

// TestValueMarshalJSON pins the cell encoding, including the non-finite
// float guard.
func TestValueMarshalJSON(t *testing.T) {
	cases := []struct {
		v    storage.Value
		want string
	}{
		{storage.IntValue(-7), `-7`},
		{storage.IntValue(1 << 60), `1152921504606846976`},
		{storage.FloatValue(2.5), `2.5`},
		{storage.StringValue(`a"b`), `"a\"b"`},
		{storage.NullValue(storage.Int64), `null`},
		{storage.NullValue(storage.String), `null`},
	}
	for _, tc := range cases {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("Value %v -> %s, want %s", tc.v, got, tc.want)
		}
	}
}
