// The benchmark is a module of its own so that it builds from its own
// directory; it reaches the program under test through the replace line.
module milr/benchmark

go 1.22

require milr v0.0.0

replace milr => ../
