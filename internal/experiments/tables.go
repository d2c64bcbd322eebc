package experiments

import (
	"fmt"
	"io"
	"time"
)

// AllTables lists what `experiments -all` renders: the paper's Tables 1-5
// and the representation-spectrum extension, Table 6.
var AllTables = []int{1, 2, 3, 4, 5, 6}

// WriteTables renders the given tables to w in order. Table 3 is collected
// from `shards` merged runs when shards > 1 (byte-identical output at any
// shard count). done, when non-nil, is called after each table with the
// time it took.
func (s *Session) WriteTables(w io.Writer, tables []int, shards int, done func(table int, elapsed time.Duration)) error {
	for _, n := range tables {
		start := time.Now()
		if err := s.writeTable(w, n, shards); err != nil {
			return err
		}
		if done != nil {
			done(n, time.Since(start))
		}
	}
	return nil
}

func (s *Session) writeTable(w io.Writer, n, shards int) error {
	switch n {
	case 1:
		rows, err := s.Table1()
		if err != nil {
			return err
		}
		RenderTable1(rows, w)
		ext, err := s.Table1Ext()
		if err != nil {
			return err
		}
		RenderTable1Ext(ext, w)
	case 2:
		rows, err := s.Table2()
		if err != nil {
			return err
		}
		RenderTable2(rows, w)
	case 3:
		var rows []Table3Row
		var err error
		if shards > 1 {
			rows, err = s.Table3Sharded(shards)
		} else {
			rows, err = s.Table3()
		}
		if err != nil {
			return err
		}
		RenderTable3(rows, w)
	case 4:
		rows, err := s.Table4()
		if err != nil {
			return err
		}
		RenderTable4(rows, w)
		mult, err := s.Multiplicity()
		if err != nil {
			return err
		}
		RenderMultiplicity(mult, w)
	case 5:
		rows, err := s.Table5()
		if err != nil {
			return err
		}
		RenderTable5(rows, w)
	case 6:
		rows, err := s.Spectrum(2000)
		if err != nil {
			return err
		}
		RenderSpectrum(rows, w)
	default:
		return fmt.Errorf("no such table %d (want 1-6)", n)
	}
	return nil
}
