package quant

// SiteBuilds reports how many times m's site table was filled.
func SiteBuilds(m Model) int { return m.Sites().builds }
