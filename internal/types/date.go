package types

import "fmt"

// Date handling uses days since the Unix epoch (1970-01-01) so that date
// predicates are plain integer intervals. The civil-date conversion below
// is the standard days-from-civil algorithm; it is exact for all Gregorian
// dates and avoids pulling time zones into the engine.

// DaysFromCivil converts a calendar date to days since 1970-01-01.
func DaysFromCivil(y, m, d int) int64 {
	yy := int64(y)
	if m <= 2 {
		yy--
	}
	era := yy / 400
	if yy < 0 && yy%400 != 0 {
		era--
	}
	yoe := yy - era*400 // [0, 399]
	var mp int64
	if m > 2 {
		mp = int64(m) - 3
	} else {
		mp = int64(m) + 9
	}
	doy := (153*mp+2)/5 + int64(d) - 1     // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468
}

// CivilFromDays converts days since 1970-01-01 back to a calendar date.
func CivilFromDays(days int64) (y, m, d int) {
	z := days + 719468
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	yy := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100) // [0, 365]
	mp := (5*doy + 2) / 153                  // [0, 11]
	d = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		m = int(mp + 3)
	} else {
		m = int(mp - 9)
	}
	if m <= 2 {
		yy++
	}
	return int(yy), m, d
}

// ParseDate parses a yyyy-mm-dd literal into days since the epoch.
func ParseDate(s string) (int64, error) {
	var y, m, d int
	if _, err := fmt.Sscanf(s, "%d-%d-%d", &y, &m, &d); err != nil {
		return 0, fmt.Errorf("types: bad date literal %q: %v", s, err)
	}
	if m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, fmt.Errorf("types: date out of range %q", s)
	}
	return DaysFromCivil(y, m, d), nil
}

// MustParseDate is ParseDate for literals known to be valid; it panics on
// malformed input and is intended for tests and generators.
func MustParseDate(s string) int64 {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}

// FormatDate renders days since the epoch as yyyy-mm-dd.
func FormatDate(days int64) string {
	return string(AppendDate(nil, days))
}

// AppendDate appends days since the epoch as yyyy-mm-dd (the year
// zero-padded to four digits, as fmt's %04d pads it) without
// allocating for years 0 through 9999.
func AppendDate(dst []byte, days int64) []byte {
	y, m, d := CivilFromDays(days)
	if y < 0 || y > 9999 {
		return fmt.Appendf(dst, "%04d-%02d-%02d", y, m, d)
	}
	return append(dst,
		byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
		byte('0'+m/10), byte('0'+m%10), '-',
		byte('0'+d/10), byte('0'+d%10))
}
