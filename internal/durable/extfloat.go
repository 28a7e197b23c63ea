package durable

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// ExtFloat is a float64 whose JSON form survives ±Inf and NaN (encoded as
// the strings "+Inf", "-Inf", "NaN"), which encoding/json rejects for plain
// floats — for fields like the optimizer's v_best and UUL threshold, which
// are +Inf until the first surrogate update, in checkpoints and flight
// records alike.
type ExtFloat float64

// MarshalJSON encodes non-finite values as quoted strings.
func (f ExtFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON decodes plain numbers, the quoted non-finite forms, and any
// other quoted number.
func (f *ExtFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		// ParseFloat reads "+Inf", "Inf", "-Inf" and "NaN" as well.
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("durable: bad ExtFloat %q", s)
		}
		*f = ExtFloat(v)
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = ExtFloat(v)
	return nil
}
