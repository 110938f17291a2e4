package tables

import "testing"

func TestDynamicCompareRecovers(t *testing.T) {
	lap := loadLap(t)
	rows := must(DynamicCompare([]*Problem{lap}))(t)
	for _, r := range rows {
		if r.DynamicEff < r.StaticEff-1e-9 {
			t.Errorf("dynamic execution worse than static: %+v", r)
		}
		if r.DynamicEff > r.CritPathEff+1e-9 && r.CritPathEff <= 1 {
			t.Errorf("dynamic efficiency above critical-path bound: %+v", r)
		}
	}
	_ = FormatDynamicCompare(rows)
}
