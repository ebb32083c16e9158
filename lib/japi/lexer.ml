type kind =
  | Ident
  | Kw_package
  | Kw_import
  | Kw_class
  | Kw_interface
  | Kw_extends
  | Kw_implements
  | Kw_static
  | Kw_public
  | Kw_protected
  | Kw_private
  | Kw_abstract
  | Kw_final
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Semi
  | Comma
  | Dot
  | Lbracket
  | Rbracket
  | At
  | Eof

(* [words.(id)] is identifier [id]'s kind, for ids below [n_words]. *)
type keywords = {
  mutable words : kind array;
  mutable n_words : int;
}

type t = {
  names : Names.t;
  mutable kinds : kind array;
  mutable lines : int array;
  mutable cols : int array;
  mutable idents : int array;
  mutable length : int;
  keywords : keywords;
}

let create names =
  {
    names;
    kinds = Array.make 64 Eof;
    lines = Array.make 64 0;
    cols = Array.make 64 0;
    idents = Array.make 64 0;
    length = 0;
    keywords = { words = Array.make 64 Ident; n_words = 0 };
  }

let keyword = function
  | "package" -> Kw_package
  | "import" -> Kw_import
  | "class" -> Kw_class
  | "interface" -> Kw_interface
  | "extends" -> Kw_extends
  | "implements" -> Kw_implements
  | "static" -> Kw_static
  | "public" -> Kw_public
  | "protected" -> Kw_protected
  | "private" -> Kw_private
  | "abstract" -> Kw_abstract
  | "final" -> Kw_final
  | _ -> Ident

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The kind of an identifier id: each id is matched against the keywords
   once per load, when the lexer first meets an id at or beyond [n_words]
   (the table may have interned names the lexer never saw). *)
let word t id =
  let kw = t.keywords in
  while id >= kw.n_words do
    if kw.n_words = Array.length kw.words then kw.words <- grow kw.words Ident;
    kw.words.(kw.n_words) <- keyword (Names.ident t.names kw.n_words);
    kw.n_words <- kw.n_words + 1
  done;
  kw.words.(id)

let emit t kind id line col =
  let k = t.length in
  if k = Array.length t.kinds then begin
    t.kinds <- grow t.kinds Eof;
    t.lines <- grow t.lines 0;
    t.cols <- grow t.cols 0;
    t.idents <- grow t.idents 0
  end;
  t.kinds.(k) <- kind;
  t.lines.(k) <- line;
  t.cols.(k) <- col;
  t.idents.(k) <- id;
  t.length <- k + 1

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let punct_kind = function
  | '{' -> Lbrace
  | '}' -> Rbrace
  | '(' -> Lparen
  | ')' -> Rparen
  | ';' -> Semi
  | ',' -> Comma
  | '.' -> Dot
  | '[' -> Lbracket
  | ']' -> Rbracket
  | _ -> At

(* No token spans a line break, so a token's column is its offset from the
   start of its line, [bol]; a tab is one column. *)
let tokenize t ~file src =
  let n = String.length src in
  t.length <- 0;
  let line = ref 1 and bol = ref 0 and i = ref 0 in
  while !i < n do
    match src.[!i] with
    | ' ' | '\t' | '\r' -> incr i
    | '\n' ->
        incr i;
        incr line;
        bol := !i
    | '/' when !i + 1 < n && src.[!i + 1] = '/' ->
        while !i < n && src.[!i] <> '\n' do
          incr i
        done
    | '/' when !i + 1 < n && src.[!i + 1] = '*' ->
        let start_line = !line and start_col = !i - !bol + 1 in
        i := !i + 2;
        let closed = ref false in
        while (not !closed) && !i < n do
          match src.[!i] with
          | '*' when !i + 1 < n && src.[!i + 1] = '/' ->
              i := !i + 2;
              closed := true
          | '\n' ->
              incr i;
              incr line;
              bol := !i
          | _ -> incr i
        done;
        if not !closed then
          Error.fail ~file ~line:start_line ~col:start_col "unterminated block comment"
    | c when is_ident_start c ->
        let start = !i in
        incr i;
        while !i < n && is_ident_char src.[!i] do
          incr i
        done;
        let id = Names.ident_sub t.names src start (!i - start) in
        emit t (word t id) id !line (start - !bol + 1)
    | ('{' | '}' | '(' | ')' | ';' | ',' | '.' | '[' | ']' | '@') as c ->
        emit t (punct_kind c) 0 !line (!i - !bol + 1);
        incr i
    | _ -> Error.unexpected_char ~file ~line:!line ~col:(!i - !bol + 1) src !i
  done;
  emit t Eof 0 !line (n - !bol + 1)

let describe_kind = function
  | Ident -> "an identifier"
  | Kw_package -> "'package'"
  | Kw_import -> "'import'"
  | Kw_class -> "'class'"
  | Kw_interface -> "'interface'"
  | Kw_extends -> "'extends'"
  | Kw_implements -> "'implements'"
  | Kw_static -> "'static'"
  | Kw_public -> "'public'"
  | Kw_protected -> "'protected'"
  | Kw_private -> "'private'"
  | Kw_abstract -> "'abstract'"
  | Kw_final -> "'final'"
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Semi -> "';'"
  | Comma -> "','"
  | Dot -> "'.'"
  | Lbracket -> "'['"
  | Rbracket -> "']'"
  | At -> "'@'"
  | Eof -> "end of input"

let describe t k =
  match t.kinds.(k) with
  | Ident -> Printf.sprintf "identifier '%s'" (Names.ident t.names t.idents.(k))
  | kind -> describe_kind kind
