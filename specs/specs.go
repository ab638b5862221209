// Package specs embeds the shipped threshold automata (*.ta, the textual
// format of internal/taformat) and LTL property files (*.ltl, the syntax of
// internal/ltl). These files are the only source of the bundled models:
// internal/models parses them, and `holistic verify -ta F -spec G` reads
// the same text from disk.
package specs

import "embed"

// FS holds every *.ta and *.ltl file of this directory.
//
//go:embed *.ta *.ltl
var FS embed.FS
