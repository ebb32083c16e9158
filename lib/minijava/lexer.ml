type kind =
  | Ident of string
  | String_lit of string
  | Int_lit of int
  | Kw of string
  | Punct of char
  | Eof

type token = {
  kind : kind;
  line : int;
  col : int;
}

let keywords =
  [
    "package"; "import"; "class"; "extends"; "implements"; "static"; "public";
    "protected"; "private"; "new"; "return"; "null"; "true"; "false"; "void";
    "if"; "else"; "while"; "final";
  ]

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let tokenize ~file src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 in
  let col = ref 1 in
  let i = ref 0 in
  let emit kind ~line ~col = tokens := { kind; line; col } :: !tokens in
  let advance () =
    (if src.[!i] = '\n' then (
       incr line;
       col := 1)
     else incr col);
    incr i
  in
  while !i < n do
    let c = src.[!i] in
    let tok_line = !line and tok_col = !col in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then
      while !i < n && src.[!i] <> '\n' do
        advance ()
      done
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      advance ();
      advance ();
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '*' && !i + 1 < n && src.[!i + 1] = '/' then begin
          advance ();
          advance ();
          closed := true
        end
        else advance ()
      done;
      if not !closed then
        Japi.Error.fail ~file ~line:tok_line ~col:tok_col "unterminated block comment"
    end
    else if c = '"' then begin
      advance ();
      let buf = Buffer.create 16 in
      let closed = ref false in
      while (not !closed) && !i < n do
        let c = src.[!i] in
        if c = '"' then begin
          advance ();
          closed := true
        end
        else if c = '\\' && !i + 1 < n then begin
          advance ();
          let e = src.[!i] in
          advance ();
          Buffer.add_char buf
            (match e with 'n' -> '\n' | 't' -> '\t' | c -> c)
        end
        else begin
          Buffer.add_char buf c;
          advance ()
        end
      done;
      if not !closed then
        Japi.Error.fail ~file ~line:tok_line ~col:tok_col "unterminated string literal";
      emit (String_lit (Buffer.contents buf)) ~line:tok_line ~col:tok_col
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do
        advance ()
      done;
      emit (Int_lit (int_of_string (String.sub src start (!i - start)))) ~line:tok_line
        ~col:tok_col
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        advance ()
      done;
      let word = String.sub src start (!i - start) in
      let kind = if List.mem word keywords then Kw word else Ident word in
      emit kind ~line:tok_line ~col:tok_col
    end
    else if String.contains "{}()[];,.=?" c then begin
      advance ();
      emit (Punct c) ~line:tok_line ~col:tok_col
    end
    else Japi.Error.unexpected_char ~file ~line:tok_line ~col:tok_col src !i
  done;
  tokens := { kind = Eof; line = !line; col = !col } :: !tokens;
  Array.of_list (List.rev !tokens)
