package core

import "strconv"

// Hand-rolled NDJSON emitters for the three wire messages: append-based,
// field order fixed, omitempty semantics matching the structs' JSON tags.
// Reflection-based json.Marshal measured ~6% of daemon CPU on the journal
// path alone (PERFORMANCE.md §7), so the serving hot path and the shed
// paths use these instead. The emitted bytes decode to values
// reflect.DeepEqual-identical to what encoding/json would produce
// (asserted by the differential fuzz); callers add the '\n' framing.

const hexDigits = "0123456789abcdef"

// AppendHelloJSON appends h's NDJSON encoding (without the newline).
func AppendHelloJSON(b []byte, h *HelloMsg) []byte {
	b = append(b, `{"topology":`...)
	b = appendJSONString(b, h.Topology)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(h.N), 10)
	b = append(b, `,"m":`...)
	b = strconv.AppendInt(b, int64(h.M), 10)
	b = append(b, `,"spouts":`...)
	b = strconv.AppendInt(b, int64(h.Spouts), 10)
	if h.Token != "" {
		b = append(b, `,"token":`...)
		b = appendJSONString(b, h.Token)
	}
	if h.ReadOnly {
		b = append(b, `,"readonly":true`...)
	}
	return append(b, '}')
}

// AppendSolutionJSON appends m's NDJSON encoding (without the newline).
func AppendSolutionJSON(b []byte, m *SolutionMsg) []byte {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendInt(b, int64(m.Epoch), 10)
	b = append(b, `,"assign":`...)
	if m.Assign == nil {
		b = append(b, `null`...)
	} else {
		b = append(b, '[')
		for i, v := range m.Assign {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	if m.Err != "" {
		b = append(b, `,"err":`...)
		b = appendJSONString(b, m.Err)
	}
	if m.Retry {
		b = append(b, `,"retry":true`...)
	}
	if m.Token != "" {
		b = append(b, `,"token":`...)
		b = appendJSONString(b, m.Token)
	}
	if m.Resumed {
		b = append(b, `,"resumed":true`...)
	}
	return append(b, '}')
}

// AppendMeasurementJSON appends m's NDJSON encoding (without the
// newline). Float values must be finite — JSON cannot express NaN/Inf
// (Wire.WriteMeasurement rejects them before calling this).
func AppendMeasurementJSON(b []byte, m *MeasurementMsg) []byte {
	b = append(b, '{')
	if m.Epoch != 0 {
		b = append(b, `"epoch":`...)
		b = strconv.AppendInt(b, int64(m.Epoch), 10)
		b = append(b, ',')
	}
	b = append(b, `"avg_tuple_time_ms":`...)
	b = appendJSONFloat(b, m.AvgTupleTimeMS)
	b = append(b, `,"workload":`...)
	if m.Workload == nil {
		b = append(b, `null`...)
	} else {
		b = append(b, '[')
		for i, v := range m.Workload {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, v)
		}
		b = append(b, ']')
	}
	if m.Err != "" {
		b = append(b, `,"err":`...)
		b = appendJSONString(b, m.Err)
	}
	return append(b, '}')
}

// appendJSONString emits s as a JSON string, escaping the quote, the
// backslash and control bytes (the protocol strings are tokens, topology
// names and error text).
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			b = append(b, '\\', '"')
		case c == '\\':
			b = append(b, '\\', '\\')
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// appendJSONFloat emits a finite float in its shortest round-trip form —
// every such form is a valid JSON number that parses back to the same
// float64.
func appendJSONFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
