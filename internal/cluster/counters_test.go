package cluster

import (
	"reflect"
	"testing"
)

// TestCountersAddCoversEveryField: Add must fold every field, so a counter
// that gains no line in Add fails here.
func TestCountersAddCoversEveryField(t *testing.T) {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		if k := v.Field(i).Kind(); k != reflect.Int && k != reflect.Int64 {
			t.Fatalf("%s: kind %s, want an integer counter", v.Type().Field(i).Name, k)
		}
		v.Field(i).SetInt(int64(i + 1))
	}
	var sum Counters
	sum.Add(c)
	sum.Add(c)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if got, want := s.Field(i).Int(), 2*int64(i+1); got != want {
			t.Errorf("%s: two Adds gave %d, want %d", s.Type().Field(i).Name, got, want)
		}
	}
}
