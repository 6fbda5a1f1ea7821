(* End-to-end language tests: compile MiniC programs through the full
   pipeline (front end, optimizer, classifier, code generator) and
   check the emulator's output.  Every program is run at all three
   optimization levels, so these double as semantics-preservation
   tests for the optimizer. *)

module Compile = Elag_harness.Compile
module Emulator = Elag_sim.Emulator
module Driver = Elag_opt.Driver

let run_at level src =
  let options = { Compile.default_options with opt_level = level } in
  let program = Compile.compile ~options src in
  let emu = Emulator.run_program ~max_insns:50_000_000 program in
  Emulator.output emu

let check_program name src expected =
  List.iter
    (fun (level, tag) ->
      Alcotest.(check string)
        (Printf.sprintf "%s at %s" name tag)
        expected (run_at level src))
    [ (Driver.O0, "O0"); (Driver.O1, "O1"); (Driver.O2, "O2") ]

let t name src expected =
  Alcotest.test_case name `Quick (fun () -> check_program name src expected)

(* like [t], with the workload runtime prelude (alloc, rand) prepended *)
let tr name src expected =
  Alcotest.test_case name `Quick (fun () ->
      check_program name (Elag_workloads.Runtime.with_prelude src) expected)

let suite =
  [ t "arithmetic"
      "int main() { print_int(2 + 3 * 4 - 6 / 2); return 0; }"
      "11\n"
  ; t "division truncates toward zero"
      "int main() { print_int((0 - 7) / 2); print_int((0 - 7) % 2); return 0; }"
      "-3\n-1\n"
  ; t "32-bit overflow wraps"
      "int main() { int x = 2147483647; print_int(x + 1); return 0; }"
      "-2147483648\n"
  ; t "constant comparisons wrap to 32 bits"
      "int main() { if (4294967296 == 0) print_int(1); else print_int(2); \
       if (4294967295 < 0) print_int(3); else print_int(4); return 0; }"
      "1\n3\n"
  ; t "a read before the only assignment is not propagated"
      "int main() { int x; int y; int i; y = 0; for (i = 0; i < 2; i++) { \
       y = y + x; x = 5; } print_int(y); return 0; }"
      "5\n"
  ; t "bitwise and shifts"
      "int main() { print_int((0xF0 | 0x0F) ^ 0xFF); print_int(1 << 10); \
       print_int((0-8) >> 1); return 0; }"
      "0\n1024\n-4\n"
  ; t "comparison chain"
      "int main() { print_int(1 < 2); print_int(2 <= 1); print_int(3 == 3); \
       print_int(3 != 3); return 0; }"
      "1\n0\n1\n0\n"
  ; t "while loop"
      "int main() { int i = 0; int s = 0; while (i < 10) { s = s + i; i = i + 1; } \
       print_int(s); return 0; }"
      "45\n"
  ; t "for with break and continue"
      "int main() { int i; int s = 0; for (i = 0; i < 100; i++) { \
       if (i % 2 == 0) { continue; } if (i > 10) { break; } s = s + i; } \
       print_int(s); return 0; }"
      "25\n"
  ; t "do-while runs once"
      "int main() { int n = 0; do { n = n + 1; } while (n < 0); print_int(n); return 0; }"
      "1\n"
  ; t "nested loops"
      "int main() { int i; int j; int s = 0; for (i = 0; i < 5; i++) \
       for (j = 0; j < 5; j++) s = s + i * j; print_int(s); return 0; }"
      "100\n"
  ; t "short circuit evaluation"
      "int g; int side(int v) { g = g + 1; return v; } \
       int main() { g = 0; if (side(0) && side(1)) { g = g + 100; } \
       if (side(1) || side(1)) { g = g + 1000; } print_int(g); return 0; }"
      "1002\n"
  ; t "ternary"
      "int main() { int a = 5; print_int(a > 3 ? a * 2 : a - 1); return 0; }"
      "10\n"
  ; t "global arrays with initializers"
      "int tab[5] = {10, 20, 30, 40, 50}; \
       int main() { int i; int s = 0; for (i = 0; i < 5; i++) s = s + tab[i]; \
       print_int(s); print_int(tab[2]); return 0; }"
      "150\n30\n"
  ; t "negative initializers"
      "int tab[3] = {-1, -2, -3}; int g = -7; \
       int main() { print_int(tab[0] + tab[1] + tab[2] + g); return 0; }"
      "-13\n"
  ; t "local arrays"
      "int main() { int a[8]; int i; for (i = 0; i < 8; i++) a[i] = i * i; \
       print_int(a[7]); return 0; }"
      "49\n"
  ; t "2-D arrays"
      "int m[3][4]; int main() { int r; int c; \
       for (r = 0; r < 3; r++) for (c = 0; c < 4; c++) m[r][c] = r * 10 + c; \
       print_int(m[2][3]); print_int(m[0][1]); return 0; }"
      "23\n1\n"
  ; t "char arrays and strings"
      "char msg[6] = \"hello\"; \
       int main() { int i; for (i = 0; i < 5; i++) print_char(msg[i]); \
       print_char(10); print_int(msg[0]); return 0; }"
      "hello\n104\n"
  ; t "string literals"
      "int len(char *s) { int n = 0; while (s[n]) n = n + 1; return n; } \
       int main() { print_int(len(\"early address\")); return 0; }"
      "13\n"
  ; t "byte stores truncate"
      "char b[4]; int main() { b[0] = 300; print_int(b[0]); return 0; }"
      "44\n"
  ; t "pointers and address-of"
      "int main() { int x = 5; int *p = &x; *p = *p + 37; print_int(x); return 0; }"
      "42\n"
  ; t "pointer arithmetic"
      "int a[4] = {1, 2, 3, 4}; \
       int main() { int *p = a; p = p + 2; print_int(*p); print_int(*(p - 1)); \
       print_int(p - a); return 0; }"
      "3\n2\n2\n"
  ; t "pointer to pointer"
      "int main() { int x = 7; int *p = &x; int **q = &p; **q = 9; \
       print_int(x); return 0; }"
      "9\n"
  ; t "structs"
      "struct point { int x; int y; }; \
       int main() { struct point p; p.x = 3; p.y = 4; \
       print_int(p.x * p.x + p.y * p.y); return 0; }"
      "25\n"
  ; t "struct pointers and arrow"
      "struct point { int x; int y; }; \
       int main() { struct point p; struct point *q = &p; q->x = 11; q->y = 31; \
       print_int(q->x + p.y); return 0; }"
      "42\n"
  ; t "nested struct fields"
      "struct inner { int v; }; struct outer { int pad; struct inner in; }; \
       int main() { struct outer o; o.in.v = 77; print_int(o.in.v); return 0; }"
      "77\n"
  ; tr "linked list on the heap"
      "struct cell { int v; struct cell *next; }; \
       int main() { struct cell *head = (struct cell*)0; int i; \
       for (i = 0; i < 5; i++) { \
         struct cell *c = (struct cell*)alloc(sizeof(struct cell)); \
         c->v = i; c->next = head; head = c; } \
       int s = 0; while (head) { s = s * 10 + head->v; head = head->next; } \
       print_int(s); return 0; }"
      "43210\n"
  ; t "recursion"
      "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); } \
       int main() { print_int(fib(15)); return 0; }"
      "610\n"
  ; t "mutual recursion"
      "int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); } \
       int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); } \
       int main() { print_int(is_even(10)); print_int(is_odd(10)); return 0; }"
      "1\n0\n"
  ; t "many arguments"
      "int sum8(int a, int b, int c, int d, int e, int f, int g, int h) { \
       return a + b + c + d + e + f + g + h; } \
       int main() { print_int(sum8(1, 2, 3, 4, 5, 6, 7, 8)); return 0; }"
      "36\n"
  ; t "globals persist across calls"
      "int counter; void tick() { counter = counter + 1; } \
       int main() { int i; for (i = 0; i < 7; i++) tick(); \
       print_int(counter); return 0; }"
      "7\n"
  ; t "casts between int and pointer"
      "int g = 123; int main() { int addr = (int)&g; int *p = (int*)addr; \
       print_int(*p); return 0; }"
      "123\n"
  ; t "sizeof"
      "struct s { int a; char b; }; \
       int main() { print_int(sizeof(int)); print_int(sizeof(char)); \
       print_int(sizeof(struct s)); print_int(sizeof(int*)); return 0; }"
      "4\n1\n8\n4\n"
  ; t "exit builtin stops execution"
      "int main() { print_int(1); exit(0); print_int(2); return 0; }"
      "1\n"
  ; t "assignment as expression value"
      "int main() { int a; int b; a = (b = 21) * 2; print_int(a + b); return 0; }"
      "63\n"
  ; t "logical not and bitwise not"
      "int main() { print_int(!5); print_int(!0); print_int(~0); return 0; }"
      "0\n1\n-1\n"
  ; t "shift by variable amounts"
      "int main() { int i; int v = 1; int s = 0; \
       for (i = 0; i < 8; i++) { s = s + (v << i); } print_int(s); return 0; }"
      "255\n"
  ; t "while with assignment condition"
      "int src[5] = {3, 1, 4, 1, 0}; \
       int main() { int i = 0; int v; int s = 0; \
       while ((v = src[i]) != 0) { s = s * 10 + v; i = i + 1; } \
       print_int(s); return 0; }"
      "3141\n"
  ; t "chars compare and convert"
      "int main() { char c = 'z'; print_int(c > 'a'); print_int(c - 'a'); \
       print_int('0' + 7); return 0; }"
      "1\n25\n55\n"
  ; t "struct array of structs"
      "struct p { int x; int y; }; struct p pts[3]; \
       int main() { int i; for (i = 0; i < 3; i++) { pts[i].x = i; pts[i].y = i * i; } \
       print_int(pts[2].x + pts[2].y); return 0; }"
      "6\n"
  ; t "pointer into struct array"
      "struct p { int x; int y; }; struct p pts[3]; \
       int main() { struct p *q = &pts[1]; q->x = 9; q->y = 8; \
       print_int(pts[1].x * 10 + pts[1].y); return 0; }"
      "98\n"
  ; t "nested loop break only inner"
      "int main() { int i; int j; int s = 0; \
       for (i = 0; i < 3; i++) { for (j = 0; j < 10; j++) { \
       if (j == 2) { break; } s = s + 1; } } print_int(s); return 0; }"
      "6\n"
  ; t "sizeof array type"
      "int main() { print_int(sizeof(int[10])); print_int(sizeof(char[3])); return 0; }"
      "40\n3\n"
  ; t "dead code after return is harmless"
      "int main() { print_int(1); return 0; print_int(2); return 9; }"
      "1\n"
  ; t "void function early return"
      "int g; void f(int x) { if (x < 0) { return; } g = x; } \
       int main() { f(0 - 5); f(7); print_int(g); return 0; }"
      "7\n" ]
